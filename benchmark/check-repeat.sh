#!/usr/bin/env bash
# Runs the timed + counted passes of every workload twice on the same tree
# and fails unless every (end-to-end metric, workload) pair agrees within the
# metric's bound. Prints both medians and the min/max of each side's
# repetitions. Extra arguments (--seconds, --seed, --smoke) pass through.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --check-repeat "$@"
