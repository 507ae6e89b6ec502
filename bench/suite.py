"""The ``suite`` workload: full ``cohdual check --suite all`` passes.

Each pass runs in a fresh interpreter with a seed drawn from the workload
seed.  Seeds come in pairs, and the second pass of a pair must print the
same bytes as the first.  Every pass must report all nine check lines as
passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from tracer import CHECK_LINES


@dataclass(frozen=True)
class Pass:
    seed: int
    command: str = "check"


class SuiteWorkload:
    in_process = False
    trace_ops = 2  # one seed pair, so the traced run also checks byte identity

    def __init__(self, ctx):
        self.ctx = ctx
        self.previous: dict[int, bytes] = {}

    def generate(self, rng) -> list[Pass]:
        seeds = [rng.randrange(1, 10 ** 6) for _ in range(200)]
        return [Pass(seed) for seed in seeds for _ in range(2)]

    def prepare(self, phase_dir) -> None:
        pass

    def execute(self, op: Pass, phase_dir, trace_file=None):
        argv = ["check", "--suite", "all", "--seed", str(op.seed)]
        proc, seconds = self.ctx.cohdual(argv, phase_dir, trace_file)
        return seconds, self.judge(op, proc)

    def judge(self, op: Pass, proc):
        """None when the pass is right, else what was wrong with it."""
        if proc is None:
            return "timed out"
        if proc.returncode != 0 or b"Traceback" in proc.stderr:
            return f"exit {proc.returncode}: {proc.stderr[-200:]!r}"
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return "stdout is not a JSON document"
        names = sorted(line.get("name") for line in doc.get("lines", []))
        if (doc.get("kind") != "check_report" or doc.get("seed") != op.seed
                or names != sorted(CHECK_LINES.values())):
            return "wrong report shape"
        failing = [line["name"] for line in doc["lines"] if line.get("passed") is not True]
        if failing or doc.get("passed") is not True:
            return f"check lines failed: {failing}"
        first = self.previous.setdefault(op.seed, proc.stdout)
        if first != proc.stdout:
            return f"seed {op.seed}: report bytes differ between passes"
        return None

    def finish(self, outcome) -> None:
        pass
