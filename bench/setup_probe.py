"""Set-up probe: a fresh interpreter imports adaregret and validates the
workload's config, and nothing else. bench/run.py times it from start to exit.

Usage: python3 bench/setup_probe.py WORKLOAD SEED
"""
import sys

from workloads import raw_config

from adaregret.cli import validate_config

validate_config(raw_config(sys.argv[1], int(sys.argv[2])))
