"""Batch verification driver: configuration, check orchestration, reports.

Reports are deterministic given the configuration; per-check timings are
normalized to zero in emitted files unless explicitly requested, so that
identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys
import time

from . import __version__
from .poly import _is_prime
from .rootdata import FAMILY_A, FAMILY_C, FAMILY_D, build_group_datum
from .sections import GroupSections, equivariance_suite
from .splitting import (
    NOT_COMPUTED,
    ResourceGuard,
    RncCertificate,
    rnc_search,
    rnc_verify,
    skew_minor_claim,
    splitting_coefficient,
    squarefree_probe,
)
from .vanishing import max_multiplicity_verdict, sl_order_table_check

FAMILY_BY_NAME = {"sl": FAMILY_A, "sp": FAMILY_C, "so": FAMILY_D}
NAME_BY_FAMILY = {v: k for k, v in FAMILY_BY_NAME.items()}

CHECK_SEQUENCE = (
    "weights",
    "equivariance",
    "specializations",
    "orders",
    "skew",
    "squarefree",
    "rnc",
    "splitcoeff",
)

OUTPUT_DIR_ENV = "FLAGSPLIT_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


class SuiteConfig:
    def __init__(self, family, n, r=None, primes=(3,), checks=None, seed=0,
                 max_terms=2_000_000, max_seconds=300.0):
        if family not in (FAMILY_A, FAMILY_C, FAMILY_D):
            raise ConfigError(f"unknown family {family!r}")
        if n < 2:
            raise ConfigError("n must be at least 2")
        if family == FAMILY_A:
            if r is None:
                raise ConfigError("family sl requires --r")
            if not 1 <= r <= n - 1:
                raise ConfigError(f"need 1 <= r <= n-1, got r={r}")
        elif r is not None:
            raise ConfigError("--r is only meaningful for family sl")
        primes = list(primes)
        if not primes:
            raise ConfigError("the prime list is empty")
        for p in primes:
            if p < 3 or not _is_prime(p):
                raise ConfigError(f"primes must be odd primes >= 3, got {p}")
        checks = list(checks) if checks is not None else list(CHECK_SEQUENCE)
        for c in checks:
            if c not in CHECK_SEQUENCE:
                raise ConfigError(f"unknown check {c!r}")
        if not checks:
            raise ConfigError("the check list is empty")
        # written so that a NaN limit fails too
        if not all(0 < limit < math.inf for limit in (max_terms, max_seconds)):
            raise ConfigError("resource guards must be finite and positive")
        self.family = family
        self.n = n
        self.r = r
        self.primes = primes
        self.checks = checks
        self.seed = seed
        self.max_terms = max_terms
        self.max_seconds = max_seconds

    def serialize(self):
        return {
            "family": NAME_BY_FAMILY[self.family],
            "n": self.n,
            "r": self.r,
            "primes": self.primes,
            "checks": self.checks,
            "seed": self.seed,
            "max_terms": self.max_terms,
            "max_seconds": self.max_seconds,
        }


class VerificationReport:
    def __init__(self, config):
        self.config = config
        self.checks = []

    def add(self, name, status, payload, seconds):
        self.checks.append(
            {"name": name, "status": status, "payload": payload,
             "seconds": seconds}
        )

    @property
    def exit_code(self):
        statuses = {c["status"] for c in self.checks}
        if "fail" in statuses:
            return 1
        if "not-computed" in statuses:
            return 3
        return 0

    def serialize(self, timings=False):
        return {
            "version": __version__,
            "config": self.config.serialize(),
            "checks": [
                dict(c, seconds=c["seconds"] if timings else 0.0)
                for c in self.checks
            ],
        }


def _weight_payload(sections):
    group = sections.group
    plus, minus = sections.pair
    return {
        "sigma_minus_weight_doubled": list(minus.weight().doubled),
        "sigma_plus_weight_doubled": list(plus.weight().doubled),
        "rho_doubled": list(group.rho.doubled),
        "factor_weights_doubled": [list(w.doubled) for w in minus.factor_weights()],
        "matches_rho": minus.weight() == group.rho
        and plus.weight() == -group.rho,
    }


def _run_check(name, config, sections):
    group = sections.group
    if name == "weights":
        payload = _weight_payload(sections)
        return ("pass" if payload["matches_rho"] else "fail"), payload
    if name == "equivariance":
        return "pass", equivariance_suite(sections)
    if name == "specializations":
        if group.family == FAMILY_A:
            return "pass", {"not_applicable": "family sl has no specialization family"}
        family = sections.specialization
        membership = family.sample_membership(seed=config.seed)
        payload = family.serialize()
        payload["sampled_membership"] = membership
        payload["parameter_count"] = family.parameter_count()
        return ("pass" if membership else "fail"), payload
    if name == "orders":
        report = max_multiplicity_verdict(sections, config.primes)
        payload = report.serialize()
        if group.family == FAMILY_A:
            payload["table_check"] = sl_order_table_check(sections)
            ok = payload["table_check"]["ok"] and report.maximal_multiplicity
        else:
            ok = report.maximal_multiplicity and report.bounds_consistent()
        return ("pass" if ok else "fail"), payload
    if name == "skew":
        if group.family != FAMILY_D or group.n % 2 == 0:
            return "pass", {"not_applicable": "skew claim applies to so with odd n"}
        results = [
            skew_minor_claim(group.n, k, seed=config.seed + 11).serialize()
            for k in range(1, group.n)
        ]
        ok = all(r["nonzero"] for r in results)
        return ("pass" if ok else "fail"), {"claims": results}
    if name == "squarefree":
        f = sections.f_entry if group.family == FAMILY_A else sections.f_big
        payload = squarefree_probe(f, trials=20, seed=config.seed)
        return ("pass" if payload["all_squarefree"] else "fail"), payload
    if name == "rnc":
        if group.family != FAMILY_A:
            return "pass", {
                "not_applicable": "certificate search is run on the sl big cell"
            }
        outcome = rnc_search(sections.f_entry)
        if isinstance(outcome, RncCertificate):
            return "pass", outcome.serialize()
        return "fail", outcome
    if name == "splitcoeff":
        verdicts = []
        status = "pass"
        for p in config.primes:
            guard = ResourceGuard(config.max_terms, config.max_seconds)
            verdict = splitting_coefficient(
                sections.f_big, sections.big_cell.variables, p, guard=guard
            )
            verdicts.append(verdict.serialize())
            if verdict.status == NOT_COMPUTED:
                if status != "fail":
                    status = "not-computed"
            elif not verdict.splits:
                status = "fail"
        return status, {"verdicts": verdicts}
    raise ConfigError(f"unknown check {name!r}")


def run_suite(config):
    """Run the requested checks in canonical dependency order."""
    report = VerificationReport(config)
    sections = GroupSections(build_group_datum(config.family, config.n), config.r)
    for name in CHECK_SEQUENCE:
        if name not in config.checks:
            continue
        started = time.monotonic()
        try:
            status, payload = _run_check(name, config, sections)
        except Exception as exc:  # a failed identity raises; record it
            status, payload = "fail", {"error": f"{type(exc).__name__}: {exc}"}
        report.add(name, status, payload, time.monotonic() - started)
    return report


def emit_report(report, fmt="json", out=None, timings=False):
    data = report.serialize(timings=timings)
    if fmt == "json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        lines = [f"verification report v{data['version']}",
                 f"config: {json.dumps(data['config'])}"]
        for check in data["checks"]:
            lines.append(f"[{check['status']:>12}] {check['name']}")
            lines.append(f"    {json.dumps(check['payload'], default=str)}")
        lines.append(f"exit code: {report.exit_code}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(_output_path(out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _output_path(out):
    """A relative `--out` of verify is taken inside FLAGSPLIT_OUTPUT_DIR."""
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(out):
        return os.path.join(out_dir, out)
    return out


def _cannot_write(path, what):
    """True, after one line on stderr, when `path` cannot be opened for
    writing; a missing file is created empty."""
    try:
        open(path, "a").close()
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return True
    return False


def load_golden_chain():
    resource = importlib.resources.files("flagsplit.data").joinpath(
        "appendix_n5_chain.json"
    )
    return RncCertificate.deserialize(json.loads(resource.read_text()))


def appendix_check():
    """Verify the shipped n=5 chain against a freshly computed sigma_minus."""
    f0 = GroupSections(build_group_datum(FAMILY_A, 5)).f_entry
    cert = load_golden_chain()
    rnc_verify(f0, cert)
    return cert


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="flagsplit",
        description="Exact verification of minor-product splitting sections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--family", required=True, choices=sorted(FAMILY_BY_NAME))
    verify.add_argument("--n", required=True, type=int)
    verify.add_argument("--r", type=int)
    verify.add_argument("--p", default="3",
                        help="comma-separated odd primes (default 3)")
    verify.add_argument("--checks", help="comma-separated subset of: "
                        + ",".join(CHECK_SEQUENCE))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--max-terms", type=int, default=2_000_000)
    verify.add_argument("--max-seconds", type=float, default=300.0)
    verify.add_argument("--format", choices=("json", "text"), default="json")
    verify.add_argument("--out")
    verify.add_argument("--timings", action="store_true",
                        help="emit real per-check timings (breaks byte determinism)")

    sub.add_parser("appendix-check", help="verify the shipped n=5 golden chain")

    rnc = sub.add_parser("rnc", help="emit a certificate for the sl big cell")
    rnc.add_argument("--family", required=True, choices=("sl",))
    rnc.add_argument("--n", required=True, type=int)
    rnc.add_argument("--out")

    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.command == "appendix-check":
        cert = appendix_check()
        print(f"golden chain verified: {len(cert.variable_order)} variables, "
              f"unit {cert.unit}")
        return 0
    if args.command == "rnc":
        if args.n < 2:
            print("n must be at least 2", file=sys.stderr)
            return 2
        if args.out and _cannot_write(args.out, "certificate"):
            return 2
        outcome = rnc_search(GroupSections(build_group_datum(FAMILY_A, args.n)).f_entry)
        if not isinstance(outcome, RncCertificate):
            print(json.dumps(outcome, indent=2))
            return 1
        text = json.dumps(outcome.serialize(), indent=2) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"cannot write certificate: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
        return 0
    # verify
    try:
        primes = [int(p) for p in args.p.split(",") if p]
        checks = (
            [c for c in args.checks.split(",") if c]
            if args.checks is not None
            else None
        )
        config = SuiteConfig(
            family=FAMILY_BY_NAME[args.family],
            n=args.n,
            r=args.r,
            primes=primes,
            checks=checks,
            seed=args.seed,
            max_terms=args.max_terms,
            max_seconds=args.max_seconds,
        )
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.out and _cannot_write(_output_path(args.out), "report"):
        return 2
    report = run_suite(config)
    try:
        emit_report(report, fmt=args.format, out=args.out, timings=args.timings)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
