"""Seeded request plans and known-answer checks for the three workloads.

A workload is a fixed set of request kinds.  One pass sends every kind
once, in an order the seed shuffles; the numeric deformation values a
kind uses come from a small seeded pool that passes cycle through, so
identical argv recur within a run and byte-determinism can be checked.

Every check compares against an answer that does not come from the
program's normal-form conventions: closed-form energies, degeneracies,
admissibility and ladder coefficients; "every identity residual is zero"
for the unperturbed families; a nonzero residual and exit code 1 for the
perturbed controls.  The one exception is the scaling control, whose
answer is the program's own normal form of -J+^k, computed before the
timed loop by a different expression.
"""

from __future__ import annotations

import json
import random
from math import gcd
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Kept here rather than read from the program, so that a family the
# program silently dropped would show up as a failed request.
FAMILIES = (
    "sl12", "su11", "osp12-grading", "sd2", "sd2-conserved", "casimir-sd2",
    "gauge-sl12", "conformal", "gauge-2d", "k-reflection", "cubic", "hahn",
    "super-odd", "super-evenodd", "super-even", "super-casimir",
    "susy-defining", "susy-1d", "susy-generic", "susy-nd",
    "susy-k-invariance",
)
PERTURBED = ("sd2", "hahn")
REPORT_KEYS = {"command", "dims", "mu_mode", "results", "status"}

# Each numeric request kind cycles through a pool of seeded values, one
# pool slot per denominator here.  Fixing the denominators keeps the cost
# of a pass about the same from seed to seed; the seed picks numerators.
DENOMINATORS = (3, 4, 5, 7)

Check = Callable[[int, object], Optional[str]]


@dataclass(frozen=True)
class Request:
    """One call into the program and the check of its answer.

    ``argv`` requests go through ``dunklweyl.cli.main`` and are checked on
    (exit code, stdout); ``call`` requests name a function of the states
    API and are checked on (0, return value).
    """

    kind: str
    check: Check
    argv: Optional[Tuple[str, ...]] = None
    call: Optional[Tuple[str, int]] = None


def _json(out: object) -> Tuple[Optional[dict], Optional[str]]:
    try:
        report = json.loads(out)
    except (TypeError, ValueError):
        return None, "stdout is not JSON"
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return None, "report does not have the five keys"
    return report, None


def _mu_text(values: Sequence[Fraction]) -> str:
    return "--mu=" + ",".join(str(v) for v in values)


def _draw(rng: random.Random, admissible: Sequence[bool], den: int
          ) -> Tuple[Fraction, ...]:
    """Distinct rationals with denominator den and 1 < |value| < 2, one per
    entry of admissible: positive where it is true, below -1/2 elsewhere.
    The narrow band keeps the size of the exact arithmetic about the same
    for every seed, and distinct values keep mu1 - mu2 from vanishing."""
    nums = [n for n in range(den + 1, 2 * den) if gcd(n, den) == 1]
    return tuple(Fraction(n if ok else -n, den)
                 for n, ok in zip(rng.sample(nums, len(admissible)),
                                  admissible))


# verify ---------------------------------------------------------------------

def _verify_passes(fam: str, want_code: int, mode: str) -> Check:
    def check(code: int, out: object) -> Optional[str]:
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if mode == "text":
            lines = str(out).splitlines()
            if lines[-1:] != ["status: pass"]:
                return "text report does not end in 'status: pass'"
            if not lines[0].startswith("ok") or fam not in lines[0].split():
                return f"text report does not pass {fam}"
            return None
        report, problem = _json(out)
        if problem:
            return problem
        res = report["results"]
        if (report["status"] != "pass" or len(res) != 1
                or res[0]["family"] != fam or not res[0]["passed"]
                or not res[0]["identities"]):
            return f"{fam} did not pass"
        for row in res[0]["identities"]:
            if (not row["passed"] or row["residual"] != "0"
                    or row["residual_terms"] != 0):
                return f"{fam}: nonzero residual for {row['label']}"
        return None
    return check


def _verify_fails(fam: str) -> Check:
    def check(code: int, out: object) -> Optional[str]:
        if code != 1:
            return f"perturbed {fam}: exit {code}, expected 1"
        report, problem = _json(out)
        if problem:
            return problem
        rows = [r for fr in report["results"] for r in fr["identities"]]
        if report["status"] != "fail" or not any(
                not r["passed"] and r["residual_terms"] > 0
                and r["residual"] != "0" for r in rows):
            return f"perturbed {fam} reported no nonzero residual"
        return None
    return check


def _lists_families(code: int, out: object) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0"
    listed = [line.split(":")[0] for line in str(out).splitlines()]
    if listed != list(FAMILIES):
        return "list-relations does not list the 21 families in order"
    return None


def verify_kinds(rng: random.Random) -> List[List[Request]]:
    # list-relations makes the kind count odd, which puts the median
    # inside one kind's latencies rather than between two kinds.
    kinds = [[Request("list-relations", _lists_families,
                      argv=("list-relations",))]]
    for fam in FAMILIES:
        kinds.append([Request(f"verify {fam}", _verify_passes(fam, 0, "json"),
                              argv=("verify", fam, "--format", "json"))])
        pool = []
        for den in DENOMINATORS:
            mu = _draw(rng, (True, True), den)
            pool.append(Request(f"verify {fam} --mu",
                                _verify_passes(fam, 0, "text"),
                                argv=("verify", fam, _mu_text(mu))))
        kinds.append(pool)
    for fam in PERTURBED:
        kinds.append([Request(f"verify {fam} --perturb", _verify_fails(fam),
                              argv=("verify", fam, "--perturb",
                                    "--format", "json"))])
    return kinds


def verify_sabotaged() -> Request:
    """A control expected, wrongly, to pass."""
    return Request("sabotaged", _verify_passes("sd2", 0, "json"),
                   argv=("verify", "sd2", "--perturb", "--format", "json"))


# scaling --------------------------------------------------------------------

def _nf_equals(expected: Callable[[], str]) -> Check:
    def check(code: int, out: object) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        report, problem = _json(out)
        if problem:
            return problem
        got = report["results"][0]["normal_form"]
        want = expected()
        if got != want:
            return (f"normal form {got[:40]!r} ({len(got)} chars), "
                    f"expected {want[:40]!r} ({len(want)} chars)")
        return None
    return check


def _nf(dims: int, expr: str) -> Tuple[str, ...]:
    return ("nf", "--dims", str(dims), "--format", "json", expr)


class Scaling:
    """Identities known to be zero, at ladder powers and variable counts
    past what the test suite reaches, plus the perturbed J0 control whose
    answer is the normal form of -J+^k."""

    CONTROL_POWERS = (3, 4, 5)

    def __init__(self) -> None:
        self.negated: Dict[int, str] = {}

    def expected_control(self, k: int) -> Callable[[], str]:
        return lambda: self.negated[k]

    def prepare_argv(self) -> Dict[int, Tuple[str, ...]]:
        """argv whose normal forms the control checks compare against."""
        return {k: _nf(2, f"0 - J+^{k}") for k in self.CONTROL_POWERS}

    def kinds(self, rng: random.Random) -> List[List[Request]]:
        zero = _nf_equals(lambda: "0")
        # The three largest, the k = 5 ladders and the k = 5 control, cost
        # about a second each; the tail percentile falls among them.
        two = [f"comm(H, J+^{k})" for k in (2, 3, 4, 5)]
        two += [f"comm(H, J-^{k})" for k in (2, 3, 4, 5)]
        two += [f"comm(J0, J+^{k}) - {2 * k}*J+^{k}" for k in (2, 3, 4)]
        two += ["comm(J0, J-^3) + 6*J-^3"]
        two += [f"comm(C, J-^{k})" for k in (2, 3)]
        two += ["comm(P, K+^2)"]
        exprs = [(2, e) for e in two]
        # Ladder pairs A+i*A-j over a seeded arrangement of the variables.
        for dims, pairs in ((3, 1), (3, 2), (3, 3), (4, 2), (5, 2)):
            order = list(range(1, dims + 1))
            rng.shuffle(order)
            factors = [f"A+{order[p % dims]}*A-{order[(p + 1) % dims]}"
                       for p in range(pairs)]
            exprs.append((dims, f"comm(H, {'*'.join(factors)})"))
        kinds = [[Request(f"nf dims={d} {e}", zero, argv=_nf(d, e))]
                 for d, e in exprs]
        for k in self.CONTROL_POWERS:
            expr = f"comm(J0, J+^{k}) - {2 * k + 1}*J+^{k}"
            kinds.append([Request(f"nf control k={k}",
                                  _nf_equals(self.expected_control(k)),
                                  argv=_nf(2, expr))])
        return kinds

    def sabotaged(self) -> Request:
        """The k=3 control, expected wrongly to vanish."""
        return Request("sabotaged", _nf_equals(lambda: "0"),
                       argv=_nf(2, "comm(J0, J+^3) - 7*J+^3"))


# spectrum -------------------------------------------------------------------

def _energy(level: int, mu: Sequence[Fraction]) -> Fraction:
    # E_N = N + dims/2 + sum(mu_j); degeneracy N + 1 in two variables.
    return level + Fraction(len(mu), 2) + sum(mu)


def _spectrum_check(mu: Sequence[Fraction], levels: int, fmt: str,
                    shift: int = 0) -> Check:
    want_rows = [(n, _energy(n, mu) + shift, 1 if len(mu) == 1 else n + 1)
                 for n in range(levels + 1)]
    want_adm = all(v > Fraction(-1, 2) for v in mu)

    def check(code: int, out: object) -> Optional[str]:
        if code != 0:
            return f"exit {code}, expected 0"
        if fmt == "json":
            report, problem = _json(out)
            if problem:
                return problem
            res = report["results"][0]
            rows = [(r["level"], Fraction(r["energy"]), r["degeneracy"])
                    for r in res["rows"]]
            admissible = res["admissible"]
        else:
            lines = str(out).splitlines()
            warned = [ln for ln in lines if ln.startswith("warning:")]
            body = [ln.split() for ln in lines[1:] if ln not in warned]
            rows = [(int(a), Fraction(b), int(c)) for a, b, c in body]
            admissible = not warned
        if rows != want_rows:
            return f"spectrum rows differ at mu={tuple(map(str, mu))}"
        if admissible != want_adm:
            return f"admissible={admissible}, expected {want_adm}"
        return None
    return check


def _ladder_check(n: int) -> Check:
    # c_k = k + mu*(1 - (-1)^k): constant k for even k, k + 2*mu for odd.
    want = [{(0,): Fraction(k), **({(1,): Fraction(2)} if k % 2 else {})}
            for k in range(1, n + 1)]

    def check(code: int, out: object) -> Optional[str]:
        got = [{tuple(e): c.as_fraction() for e, c in s.terms()}
               for s in out]
        if got != want:
            return f"ladder coefficients up to {n} differ"
        return None
    return check


def spectrum_kinds(rng: random.Random) -> List[List[Request]]:
    specs = [(1, lv) for lv in (4, 8, 12, 16)]
    specs += [(2, lv) for lv in (2, 4, 6, 8, 10, 12)]
    kinds = []
    for idx, (dims, levels) in enumerate(specs):
        fmt = "text" if idx % 2 else "json"
        pool = []
        for p, den in enumerate(DENOMINATORS):
            # Every other pool entry puts one value at or below -1/2.
            bad = rng.randrange(dims) if p % 2 else -1
            mu = _draw(rng, [j != bad for j in range(dims)], den)
            argv = ("spectrum", "--dims", str(dims), _mu_text(mu),
                    "--levels", str(levels))
            if fmt == "json":
                argv += ("--format", "json")
            pool.append(Request(f"spectrum dims={dims} levels={levels}",
                                _spectrum_check(mu, levels, fmt), argv=argv))
        kinds.append(pool)
    for n in (8, 16, 24):
        kinds.append([Request(f"ladder_norm_coefficients({n})",
                              _ladder_check(n),
                              call=("ladder_norm_coefficients", n))])
    return kinds


def spectrum_sabotaged() -> Request:
    """A 1D spectrum expected, wrongly, one unit higher."""
    mu = (Fraction(1, 3),)
    return Request("sabotaged", _spectrum_check(mu, 2, "json", shift=1),
                   argv=("spectrum", "--dims", "1", _mu_text(mu),
                         "--levels", "2", "--format", "json"))


# set-up ---------------------------------------------------------------------

_PER_VAR = ("D", "H", "A+", "A-", "A0", "B+", "B-", "Htilde", "Atilde+",
            "Atilde-", "Qc", "Sc", "Hc", "Kc", "Dc", "Q", "H_susy")
_GLOBAL_2D = ("J+", "J-", "J0", "C", "P", "K+", "K-", "K0", "K1", "K2",
              "E0", "E1", "E2", "F+", "F-", "Htilde")


def _build_all(dims: int, names: Sequence[str]) -> Tuple[str, ...]:
    # Multiplying by 0 keeps the rendering trivial: the request costs the
    # parse plus the cold build of every name in it.
    return ("nf", "--dims", str(dims), "0*(" + " + ".join(names) + ")")


def setup_argvs(workload: str) -> List[Tuple[str, ...]]:
    """Requests that build, cold, every registry operator the workload
    names."""
    if workload == "verify":
        one = ["H", "Q_susy", "H_susy"] + [f"{k}1" for k in _PER_VAR]
        two = (["H", "Q_susy", "H_susy"] + list(_GLOBAL_2D)
               + [f"{k}{i}" for i in (1, 2) for k in _PER_VAR])
        return [_build_all(1, one), _build_all(2, two),
                _build_all(3, ["Q_susy", "H_susy"])]
    if workload == "scaling":
        out = [_build_all(2, ["H", "J+", "J-", "J0", "C", "P", "K+"])]
        for dims in (3, 4, 5):
            out.append(_build_all(dims, ["H"] + [
                f"A{s}{i}" for i in range(1, dims + 1) for s in "+-"]))
        return out
    if workload == "spectrum":
        return [_build_all(1, ["H", "A+1", "A-1"]),
                _build_all(2, ["H", "A+1", "A+2"])]
    raise KeyError(workload)


class Plan:
    """The request kinds of one workload and seed."""

    # The highest whole percentile with at least ten samples beyond it in
    # a run of minimum length whose rank also falls inside one request
    # kind's latencies: at a boundary between two kinds of very different
    # cost, a percentile jumps between them from run to run.
    TAIL = {"verify": 97, "scaling": 90, "spectrum": 95}

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.tail = self.TAIL[workload]
        self.scaling = Scaling() if workload == "scaling" else None
        if workload == "verify":
            self.kinds = verify_kinds(self.rng)
            self.sabotaged = verify_sabotaged()
        elif workload == "scaling":
            self.kinds = self.scaling.kinds(self.rng)
            self.sabotaged = self.scaling.sabotaged()
        else:
            self.kinds = spectrum_kinds(self.rng)
            self.sabotaged = spectrum_sabotaged()

    @property
    def cycle(self) -> int:
        """Passes after which every pooled value has been sent once."""
        return max(len(pool) for pool in self.kinds)

    def pass_requests(self, index: int) -> List[Request]:
        """Every kind once, in a seeded order."""
        out = [pool[index % len(pool)] for pool in self.kinds]
        self.rng.shuffle(out)
        return out

    def min_samples(self) -> int:
        """Samples needed for ten beyond the tail percentile."""
        return -(-10 * 100 // (100 - self.tail))
