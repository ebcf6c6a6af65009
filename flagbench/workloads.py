"""The three request mixes: generation, execution and answer checking.

Every workload is a closed loop with one client in one thread.  Its request
list is a sequence of rounds; a round is a seeded shuffle of the workload's
whole mix, so every round asks for the same work in another order and with
fresh per-request seeds.  This keeps the medians of two seeds comparable
while the seed still decides every input the program sees.

Requests are plain data (dicts of strings and integers), built before any
timing starts; `execute` turns one into calls of flagsplit's public
functions, and `check` compares the response with the hand-written answers
in `expected.json`.
"""

from __future__ import annotations

import hashlib
import json
import random

SUITE_PRIMES = (3, 5, 7)
PROBE_TRIALS = 20

# Far above the largest drawn job (the sl5 p7 split, ~1.5 s), so that a
# verdict never depends on machine speed; a trip is counted as a failure.
GUARD_MAX_TERMS = 500_000_000
GUARD_MAX_SECONDS = 36_000.0

# In each mix the median request falls inside a block of requests of one
# kind, with other kinds on both sides; near a boundary between two kinds
# verdict_p50_s would jump between runs.

# `flagsplit verify` over sl n=2..4 with every r, plus sp2, so2, so3; the
# median request is the sp2 suite (four cheaper configurations, four dearer).
SUITE_MIX = [
    ("sl", 2, 1), ("sl", 3, 1), ("sl", 3, 2), ("sl", 4, 1), ("sl", 4, 2),
    ("sl", 4, 3), ("sp", 2, None), ("so", 2, None), ("so", 3, None),
]
# A kind's fastest time in a run is steady only if the kind repeats often
# within the run, so no request may take several seconds: the sp4 p3 split
# (~3 s) and the sp3 big-cell probe (~5 s) are left out of the mixes.

# (family, n, p) for local_splitting_coefficient; the median request is
# sl6 p3 (so4 p3 and sl5 p5 are cheaper; sp3 p5 and sl5 p7 dearer).
SPLIT_MIX = (
    [("so", 4, 3), ("sl", 5, 5)] * 2 + [("sl", 6, 3)] * 4
    + [("sp", 3, 5)] * 2 + [("sl", 5, 7)]
)
# sigma_minus on the sl entry cells and the sp/so big cells; the median
# request is an so3 probe.
LINE_MIX = [("sp", 2, "big"), ("sl", 4, "entry")] + [("so", 3, "big")] * 5 + [
    ("sl", 5, "entry"),
]

# (mix, rounds generated up front, rounds run by the traced pass).  The
# generated list is far longer than a run at seed speed can use, so that a
# faster program still has requests left; the traced pass is fixed work, so
# its counts repeat exactly for one seed.
WORKLOADS = {
    "suite_mix": (SUITE_MIX, 600, 10),
    "split_power": (SPLIT_MIX, 200, 3),
    "line_probe": (LINE_MIX, 300, 3),
}


def _seed_draw(rng):
    return rng.randrange(2**31)


def generate(workload, seed):
    """The request list of `workload` for `seed`, as a list of rounds."""
    mix, rounds, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(rounds):
        order = list(mix)
        rng.shuffle(order)
        batch = []
        for item in order:
            if workload == "suite_mix":
                family, n, r = item
                req = {"op": "suite", "family": family, "n": n, "r": r,
                       "seed": _seed_draw(rng)}
            elif workload == "split_power":
                family, n, p = item
                req = {"op": "split", "family": family, "n": n, "p": p}
            else:
                family, n, cell = item
                req = {"op": "line", "family": family, "n": n, "cell": cell,
                       "seed": _seed_draw(rng)}
            batch.append(req)
        out.append(batch)
    return out


def kind(req):
    """A request without its per-request seed: requests of one kind ask for
    the same verdict on the same input, with other random choices."""
    return tuple(sorted((k, v) for k, v in req.items() if k != "seed"))


def digest(rounds):
    """sha256 of the canonical JSON of a request list."""
    text = json.dumps(rounds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def group_key(family, n):
    return f"{family}{n}"


class Runner:
    """Executes requests against one imported copy of flagsplit.

    `fs` is a namespace holding the modules `cli`, `charts`, `rootdata`,
    `sections` and `splitting`.  Calls go through module attributes at call
    time, so a tracer that rebinds them sees every call.
    """

    def __init__(self, fs, expected, report_path):
        self.fs = fs
        self.expected = expected
        self.report_path = report_path

    def _group(self, family):
        return self.fs.cli.FAMILY_BY_NAME[family]

    def _sigma_minus_on(self, family, n, cell):
        fs = self.fs
        group = fs.rootdata.build_group_datum(self._group(family), n)
        if cell == "entry":
            chart = fs.charts.sl_entry_big_cell(n)
        else:
            chart = fs.charts.big_cell_chart(group)
        _, minus = fs.sections.build_sigma_pair(group)
        return minus.evaluate(chart.matrix)

    def execute(self, req):
        fs = self.fs
        op = req["op"]
        if op == "suite":
            config = fs.cli.SuiteConfig(
                self._group(req["family"]), req["n"], r=req["r"],
                primes=SUITE_PRIMES, seed=req["seed"],
                max_terms=GUARD_MAX_TERMS, max_seconds=GUARD_MAX_SECONDS,
            )
            report = fs.cli.run_suite(config)
            return fs.cli.emit_report(report, out=self.report_path)
        if op == "split":
            group = fs.rootdata.build_group_datum(
                self._group(req["family"]), req["n"])
            guard = fs.splitting.ResourceGuard(GUARD_MAX_TERMS, GUARD_MAX_SECONDS)
            return fs.splitting.local_splitting_coefficient(
                group, req["p"], guard=guard).serialize()
        if op == "line":
            f = self._sigma_minus_on(req["family"], req["n"], req["cell"])
            return fs.splitting.squarefree_probe(
                f, trials=PROBE_TRIALS, seed=req["seed"])
        raise ValueError(f"unknown request op {op!r}")

    def check(self, req, response):
        """Mismatches between a response and the expected answers; empty
        when the verdict is right."""
        op = req["op"]
        groups = self.expected["groups"]
        exp = groups[group_key(req["family"], req["n"])]
        if op == "suite":
            return _suite_mismatches(req, json.loads(response), exp,
                                     self.expected["checks"])
        if op == "split":
            want = exp["splits"][str(req["p"])]
            problems = []
            if response["status"] != "computed":
                problems.append(f"status {response['status']}: "
                                f"{response['guard_reason']}")
            elif response["splits"] is not want:
                problems.append(f"splits {response['splits']} != {want}")
            return problems
        if op == "line":
            if response["all_squarefree"] is not exp["all_squarefree"]:
                return [f"all_squarefree {response['all_squarefree']}"]
            return []
        raise ValueError(f"unknown request op {op!r}")


def _suite_mismatches(req, data, exp, expected_checks):
    problems = []
    config = data["config"]
    if (config["family"], config["n"], config["r"]) != (
            req["family"], req["n"], req["r"]):
        problems.append(f"report is for {config}")
    statuses = {c["name"]: c for c in data["checks"]}
    if sorted(statuses) != sorted(expected_checks):
        problems.append(f"checks run: {sorted(statuses)}")
    for name, status in expected_checks.items():
        check = statuses.get(name)
        if check is not None and check["status"] != status:
            problems.append(f"{name}: {check['status']} != {status}")
    if "orders" in statuses:
        want = exp["factor_orders"]
        if req["family"] == "sl":
            want = want[str(req["r"])]
        got = statuses["orders"]["payload"].get("factor_orders")
        if got != want:
            problems.append(f"factor orders {got} != {want}")
    if "splitcoeff" in statuses:
        verdicts = statuses["splitcoeff"]["payload"].get("verdicts", [])
        seen = sorted(v["p"] for v in verdicts)
        if seen != sorted(SUITE_PRIMES):
            problems.append(f"split primes {seen}")
        for v in verdicts:
            want = exp["splits"][str(v["p"])]
            if v["status"] != "computed" or v["splits"] is not want:
                problems.append(f"p={v['p']}: {v['status']} splits={v['splits']}")
    if "squarefree" in statuses:
        got = statuses["squarefree"]["payload"].get("all_squarefree")
        if got is not exp["all_squarefree"]:
            problems.append(f"all_squarefree {got}")
    if req["family"] == "sl" and "rnc" in statuses:
        got = statuses["rnc"]["payload"].get("unit")
        if got != exp["rnc_unit"]:
            problems.append(f"certificate unit {got} != {exp['rnc_unit']}")
    return problems
