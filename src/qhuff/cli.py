"""Command line front end.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration errors (bad expression, bad config value, budget too small),
3 any other error (an internal consistency check, running out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, fields

from .eta import NonIntegerConstant, QuotientSyntaxError, expand_spec, parse
from .series import BeyondValidity
from .vectors import chain, check_valuations
from .verify import (SeriesCache, identity_suite, matrix_suite, oracle_suite,
                     ring_law_suite, theorem_suite, vector_suite)

USAGE_ERROR = 2
_INTERNAL_ERROR = 3

# Deepest chain `dump vectors` computes, and deepest `recon_alpha` and
# `val_alpha` the vector suite accepts: its default depth.  The chains are
# exact and their tables grow as 3^alpha; Y at depth 9 needs 26244 table
# rows, hours of work.
MAX_VECTOR_DEPTH = 8

# Largest expansion `expand` takes on: coefficients held (order less the
# q-shift, plus one) times the passes over them that the expansion's plan
# makes, at least one (``residues.expand_passes``).  A stage by a sparse
# factor is one pass; a factor raised by squaring is dense, so its stage
# and each squaring and multiplication that raise it count one pass per
# coefficient: 'f1^2147483647' took 0.08 s at order 100 and 8.9 s at 400,
# growing with about the 3.4th power of the order.  A negative q-shift
# widens the series.  On one CPU '1/f1' took 4.0 s at 100000 (34 MB) and
# 13.4 s at 200000 (59 MB).
MAX_EXPAND_WORK = 200000


@dataclass
class RunConfig:
    order: int = 200000
    alpha_t1: int = 2
    alpha_t2: int = 3
    n_max: int | None = None
    format: str = "text"
    out: str | None = None
    seed: int = 0
    rows: int = 40
    identity_order: int = 500
    deep_order: int = 100
    rama_order: int = 300
    cubic_n_max: int = 1000
    pair_n_max: int = 200
    recon_alpha: int = 4
    recon_order: int = 100
    val_alpha: int = 8
    oracle_n_max: int = 40

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            least = 1 if f.name in ("order", "rows") else 0
            if f.name != "seed" and isinstance(value, int) and value < least:
                raise ValueError(f"{f.name} {value} must be at least {least}")
        if self.format not in ("text", "json", "csv"):
            raise ValueError(f"format {self.format!r} must be text, json, or csv")
        for name in ("recon_alpha", "val_alpha"):
            if getattr(self, name) > MAX_VECTOR_DEPTH:
                raise ValueError(f"{name} {getattr(self, name)} is past the vector "
                                 f"chain cap {MAX_VECTOR_DEPTH}")


def load_config_file(path):
    """Flat key=value lines; blank lines and # comments ignored."""
    values = {}
    known = {f.name: f for f in fields(RunConfig)}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in ("format", "out"):
                values[key] = value
            else:
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} needs an integer, "
                                     f"got {value!r}") from None
    return values


def make_config(args):
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if "order" not in values and getattr(args, "command", None) == "expand":
        values["order"] = 30
    config = RunConfig(**values)
    config.validate()
    return config


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _any_int_length():
    """Lift CPython's int-to-str digit limit; parsing input keeps it."""
    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- expand --------------------------------------------------------------

def cmd_expand(args, config):
    from .residues import expand_passes

    spec = parse(args.expression)
    order = config.order
    coeffs = order - spec.qshift + 1
    steps = max(1, expand_passes(spec, order))
    with _any_int_length():  # the constant may be a product of long literals
        if coeffs * steps > MAX_EXPAND_WORK:
            raise ValueError(
                f"expanding {spec.render()} to order {order} takes {steps} pass(es) "
                f"over {coeffs} coefficients, past the expand budget "
                f"MAX_EXPAND_WORK = {MAX_EXPAND_WORK}")
        series = expand_spec(spec, order)
        lo = min(series.lead, 0) if not series.is_zero else 0
        pairs = [(n, series.coefficient(n)) for n in range(lo, order + 1)]
        if config.format == "json":
            payload = {"expression": spec.render(), "order": order,
                       "coefficients": [[n, str(c)] for n, c in pairs]}
            _emit(_json_text(payload), config.out)
        elif config.format == "csv":
            lines = ["n,coefficient"] + [f"{n},{c}" for n, c in pairs]
            _emit("\n".join(lines) + "\n", config.out)
        else:
            lines = [f"{spec.render()} expanded to order {order}"]
            lines += [f"  q^{n}: {c}" for n, c in pairs]
            _emit("\n".join(lines) + "\n", config.out)
    return 0


# -- verify --------------------------------------------------------------

def _suite_text(report):
    lines = [f"suite {report.suite}: {'pass' if report.passed else 'FAIL'}"]
    for item in report.items:
        mark = "ok " if item.passed else "FAIL"
        detail = f" ({item.detail})" if item.detail else ""
        lines.append(f"  [{mark}] {item.item}{detail}")
    for claim in report.claims:
        mark = "ok " if claim.passed else "FAIL"
        nu = "inf" if claim.min_valuation == float("inf") else claim.min_valuation
        lines.append(f"  [{mark}] {claim.claim.claim_id} n<={claim.n_max} "
                     f"min_nu={nu}")
        if not claim.passed:
            lines.append(f"         failures at n={claim.failures[:10]}")
    return lines


def _suite_csv(reports):
    lines = ["suite,check,result,detail"]
    for report in reports:
        for item in report.items:
            result = "pass" if item.passed else "fail"
            detail = item.detail.replace(",", ";")
            lines.append(f"{report.suite},{item.item},{result},{detail}")
        for claim in report.claims:
            result = "pass" if claim.passed else "fail"
            nu = "inf" if claim.min_valuation == float("inf") else claim.min_valuation
            lines.append(f"{report.suite},{claim.claim.claim_id},{result},"
                         f"min_valuation={nu}")
    return "\n".join(lines) + "\n"


def run_suites(names, config):
    cache = SeriesCache()
    reports = []
    for name in names:
        if name == "identities":
            reports.append(ring_law_suite(seed=config.seed))
            reports.append(oracle_suite(config.oracle_n_max, cache))
            reports.append(identity_suite(
                order=min(config.order, config.identity_order),
                deep_order=config.deep_order, rama_order=config.rama_order,
                cubic_n_max=config.cubic_n_max, pair_n_max=config.pair_n_max,
                cache=cache))
        elif name == "theorems":
            reports.append(theorem_suite(config.order, config.alpha_t1,
                                         config.alpha_t2, config.n_max, cache))
        elif name == "matrix":
            reports.append(matrix_suite(rows=config.rows))
        elif name == "vectors":
            reports.append(vector_suite(config.recon_alpha, config.recon_order,
                                        config.val_alpha, cache))
    return reports


def cmd_verify(args, config):
    names = (["identities", "theorems", "matrix", "vectors"]
             if args.suite == "all" else [args.suite])
    reports = run_suites(names, config)
    passed = all(r.passed for r in reports)
    if config.format == "json":
        payload = {"suites": [r.to_dict() for r in reports],
                   "result": "pass" if passed else "fail"}
        _emit(_json_text(payload), config.out)
    elif config.format == "csv":
        _emit(_suite_csv(reports), config.out)
    else:
        lines = []
        for report in reports:
            lines.extend(_suite_text(report))
        lines.append(f"overall: {'pass' if passed else 'FAIL'}")
        _emit("\n".join(lines) + "\n", config.out)
    return 0 if passed else 1


# -- dump ----------------------------------------------------------------

def cmd_dump(args, config):
    from .matrices import MatrixTable

    depth = args.depth
    if depth is None:
        depth = 9 if args.what == "matrix" else 4
    if depth < 1:
        raise ValueError(f"--depth must be a positive integer, got {depth!r}")
    if args.what == "vectors" and depth > MAX_VECTOR_DEPTH:
        raise ValueError(f"--depth {depth} is past the vector chain cap "
                         f"{MAX_VECTOR_DEPTH}")
    if args.what == "matrix":
        table = MatrixTable(depth)
        rows = [table.row(i) for i in range(1, depth + 1)]
        with _any_int_length():
            if config.format == "json":
                payload = {"rows": [{"i": i, "entries": [str(c) for c in row]}
                                    for i, row in enumerate(rows, start=1)]}
                _emit(_json_text(payload), config.out)
            elif config.format == "csv":
                lines = ["i,entries"]
                lines += [",".join([str(i)] + [str(c) for c in row])
                          for i, row in enumerate(rows, start=1)]
                _emit("\n".join(lines) + "\n", config.out)
            else:
                lines = [f"row {i}: {' '.join(str(c) for c in row)}"
                         for i, row in enumerate(rows, start=1)]
                _emit("\n".join(lines) + "\n", config.out)
        return 0

    families = [args.family] if args.family else ["X", "Y"]
    vectors = [v for family in families for v in chain(family, depth)]
    with _any_int_length():
        payload = []
        for v in vectors:
            checks = check_valuations(v)
            payload.append({
                "family": v.family, "alpha": v.alpha,
                "entries": [str(c) for c in v.entries],
                "nu": ["inf" if c.nu == float("inf") else c.nu for c in checks],
                "tight": [c.index for c in checks if c.tight],
            })
        if config.format == "json":
            _emit(_json_text({"vectors": payload}), config.out)
        elif config.format == "csv":
            lines = ["family,alpha,entries"]
            lines += [",".join([p["family"], str(p["alpha"])] + p["entries"])
                      for p in payload]
            _emit("\n".join(lines) + "\n", config.out)
        else:
            lines = []
            for p in payload:
                lines.append(f"{p['family']}[{p['alpha']}]: "
                             f"({', '.join(p['entries'])})")
                lines.append(f"  nu = ({', '.join(str(n) for n in p['nu'])}); "
                             f"tight at {p['tight']}")
            _emit("\n".join(lines) + "\n", config.out)
    return 0


# -- entry ---------------------------------------------------------------

def create_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("-N", "--order", type=int, help="global working order")
    common.add_argument("--alpha-t1", type=int, dest="alpha_t1",
                        help="ladder depth for the a3 claims")
    common.add_argument("--alpha-t2", type=int, dest="alpha_t2",
                        help="ladder depth for the a9 claims")
    common.add_argument("--n-max", type=int, dest="n_max",
                        help="cap on checked progression indices")
    common.add_argument("--format", choices=("text", "json", "csv"))
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--seed", type=int,
                        help="seed for randomized ring checks")

    parser = argparse.ArgumentParser(
        prog="qhuff",
        description="exact q-series checks for cubic partition congruences")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common],
                              help="expand a product expression")
    p_expand.add_argument("expression")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite",
                          choices=("identities", "theorems", "matrix",
                                   "vectors", "all"))
    p_verify.add_argument("--rows", type=int, help="matrix rows to verify")

    p_dump = sub.add_parser("dump", parents=[common],
                            help="print table rows or vector chains")
    p_dump.add_argument("what", choices=("matrix", "vectors"))
    p_dump.add_argument("--depth", type=int,
                        help="matrix rows or chain length "
                             "(default 9 rows, 4 chain steps)")
    p_dump.add_argument("--family", choices=("X", "Y"))
    return parser


def main(argv=None):
    parser = create_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        config = make_config(args)
        if args.command == "expand":
            return cmd_expand(args, config)
        if args.command == "verify":
            return cmd_verify(args, config)
        return cmd_dump(args, config)
    except (QuotientSyntaxError, NonIntegerConstant, BeyondValidity,
            OverflowError, ZeroDivisionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return _INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
