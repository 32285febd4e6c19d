"""Correctness oracle: judges each CLI outcome from its exit code and files.

Three sources of truth, none of which calls the code under test:

* verify-mn: the price-regulation property of M_n in both directions.  A
  price vector is accepted in every mode iff, once normalized, all of its
  entries lie in [1, 2] (`check_regulation_box(n, normalize_prices(p))`);
  exact and quasi modes agree with it because every trader has positive
  income.  A zero entry is rejected as unbounded demand, an entry pushed out
  of the box as clearing-infeasible.
* verify-reduced and pipeline: structural expectations that hold for every
  seed (see README.md), plus an accept witness re-checked against the
  clearing window and budgets, an independent strategy extraction and an
  independent well-supported Nash check.
* golden.json: decisions recorded at the seed commit for the default and the
  held-out seed.  Decisions are compared, not certificate bytes, so a new
  certificate field does not count as a failure.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def load_golden() -> dict:
    return _load(GOLDEN_PATH) if GOLDEN_PATH.exists() else {}


def _market_facts(case) -> tuple:
    """(supplies, endowments) of the case's market file, cached on the case."""
    if "market_facts" not in case.expect:
        obj = _load(case.files["market"])
        endow = [[Fraction(w) for w in t["endowment"]] for t in obj["traders"]]
        supplies = [sum(col, Fraction(0)) for col in zip(*endow)]
        case.expect["market_facts"] = (supplies, endow)
    return case.expect["market_facts"]


def _check_witness(case, cert, prices, problems):
    """Accept witness: totals inside the clearing window, bundles affordable."""
    supplies, endow = _market_facts(case)
    alloc = [[Fraction(x) for x in row] for row in cert["allocation"]]
    if len(alloc) != len(endow):
        problems.append("allocation has the wrong number of bundles")
        return
    eps = Fraction(cert["epsilon"])
    for k, s in enumerate(supplies):
        total = sum((row[k] for row in alloc), Fraction(0))
        if cert["mode"] == "approximate":
            ok = max(Fraction(0), s * (1 - eps)) <= total <= s * (1 + eps)
        else:
            ok = total == s if prices[k] > 0 else total <= s
        if not ok:
            problems.append(f"good {k} allocated {total} outside its window around {s}")
            return
    for i, (row, w) in enumerate(zip(alloc, endow)):
        spend = sum((x * q for x, q in zip(row, prices)), Fraction(0))
        if spend > sum((x * q for x, q in zip(w, prices)), Fraction(0)):
            problems.append(f"bundle of trader {i} exceeds its budget")
            return


def _verify_decision(code, case, problems):
    cert_path = case.files["cert"]
    if not cert_path.exists():
        problems.append("no certificate written")
        return {"exit": code}, None
    cert = _load(cert_path)
    decision = {"exit": code, "verdict": cert["verdict"], "reason": cert["reason"]}
    if code != (0 if cert["verdict"] == "accept" else 1):
        problems.append(f"exit {code} does not match verdict {cert['verdict']}")
    return decision, cert


def _in_regulation_box(p) -> bool:
    lo = min(q for q in p if q > 0)
    return all(lo <= q <= 2 * lo for q in p)


def check_verify_mn(code, case, problems):
    decision, cert = _verify_decision(code, case, problems)
    if cert is None:
        return decision
    p = case.expect["prices"]
    if _in_regulation_box(p):
        if cert["verdict"] != "accept":
            problems.append(f"in-box prices rejected ({cert['reason']})")
        else:
            _check_witness(case, cert, p, problems)
    elif cert["verdict"] != "reject":
        problems.append("out-of-box prices accepted")
    elif 0 in p and not str(cert["reason"]).startswith("unbounded demand"):
        problems.append(f"zero price rejected for {cert['reason']!r}, not unbounded demand")
    elif 0 not in p and cert["reason"] != "clearing-infeasible":
        problems.append(f"pushed prices rejected for {cert['reason']!r}")
    return decision


def check_verify_reduced(code, case, problems):
    decision, cert = _verify_decision(code, case, problems)
    if cert is None:
        return decision
    if case.expect["eps"] == Fraction(1, 2):
        # The S block keeps its endowments at in-box prices and clears exactly;
        # the U, V and I traders move far less than half of any supply.
        if cert["verdict"] != "accept":
            problems.append(f"eps=1/2 rejected ({cert['reason']})")
        else:
            _check_witness(case, cert, case.expect["prices"], problems)
    elif (cert["verdict"], cert["reason"]) != ("reject", "clearing-infeasible"):
        # Strictly inside the box the S block is rigid, and the gadget
        # traders' net trades exceed an eps of N^-13 on some good.
        problems.append(f"eps=N^-13 gave {cert['verdict']} ({cert['reason']})")
    return decision


def wsne(game: dict, x, y, eps) -> bool:
    """Well-supported Nash check: no action played with positive weight is
    beaten by more than eps."""
    A = [[Fraction(v) for v in row] for row in game["A"]]
    B = [[Fraction(v) for v in row] for row in game["B"]]
    n = len(A)
    row_pay = [sum((A[i][k] * y[k] for k in range(n)), Fraction(0)) for i in range(n)]
    col_pay = [sum((x[k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
    for pay, w in ((row_pay, x), (col_pay, y)):
        best = max(pay)
        if any(w[i] > 0 and pay[i] + eps < best for i in range(n)):
            return False
    return True


def _extract(p, n):
    """x_k = p_k - 1 (clamped at 0) per block, normalized; None if degenerate."""
    raw = [max(q - 1, Fraction(0)) for q in p[: 2 * n]]
    xs, ys = raw[:n], raw[n:]
    if sum(xs) == 0 or sum(ys) == 0:
        return None
    return [w / sum(xs) for w in xs], [w / sum(ys) for w in ys]


def check_pipeline(code, case, problems):
    out, n, game = case.files["outdir"], case.expect["n"], case.expect["game"]
    decision = {"exit": code}
    for key in ("market", "meta"):
        produced = out / f"{key}.json"
        data = produced.read_bytes() if produced.exists() else None
        if data != case.files[key].read_bytes():
            problems.append(f"{key}.json differs from the reduce command's output")
        decision[f"{key}_sha256"] = None if data is None else hashlib.sha256(data).hexdigest()
    if not (out / "search.json").exists():
        problems.append("no search.json written")
        return decision
    search = _load(out / "search.json")
    decision["found"] = search["accepted"]
    decision["best"] = search["best_max_relative_imbalance"]
    expected_exit = 1
    if case.expect["eps"] == Fraction(1, 2):
        # Every positive price vector in the box clears within eps = 1/2.
        if not search["accepted"]:
            problems.append("eps=1/2 search did not verify its incumbent")
            return decision
        p = [Fraction(q) for q in _load(out / "prices.json")["prices"]]
        extracted = _extract(p, n)
        if extracted is None:
            # The CLI maps DegenerateExtraction to exit 2 and writes no summary.
            expected_exit = 2
            decision["strategies"] = None
        else:
            x, y = extracted
            strat = _load(out / "strat.json")
            decision["strategies"] = strat
            if [Fraction(w) for w in strat["x"]] != x or [Fraction(w) for w in strat["y"]] != y:
                problems.append("strat.json differs from the extraction map")
            decision["nash"] = wsne(game, x, y, Fraction(1, n**6))
            expected_exit = 0 if decision["nash"] else 1
    elif search["accepted"]:
        problems.append("eps=N^-13 search claims an equilibrium")
    if expected_exit != 2:
        _check_summary(out, game, decision, problems)
    if code != expected_exit:
        problems.append(f"exit {code}, expected {expected_exit}")
    return decision


def _check_summary(out, game, decision, problems):
    if not (out / "summary.json").exists():
        problems.append("no summary.json written")
        return
    summary = _load(out / "summary.json")
    if summary["equilibrium_found"] != decision["found"]:
        problems.append("summary and search.json disagree on equilibrium_found")
    if "nash" in decision and summary["nash_check"].get("passed") != decision["nash"]:
        problems.append("summary Nash result differs from the independent check")
    for eq in summary["support_enum"] or []:
        x, y = [Fraction(w) for w in eq["x"]], [Fraction(w) for w in eq["y"]]
        if eq["wsne_at_0"] != wsne(game, x, y, 0):
            problems.append("support-enumeration Nash flag differs from the independent check")


CHECKS = {
    "verify-mn": check_verify_mn,
    "verify-reduced": check_verify_reduced,
    "pipeline": check_pipeline,
}


def judge(code, case, golden_for_seed):
    """Return (decision, problems) for one finished operation."""
    problems = []
    decision = CHECKS[case.expect["kind"]](code, case, problems)
    expected = golden_for_seed.get(case.id)
    if expected is not None and decision != expected:
        problems.append(f"decision {decision} differs from golden {expected}")
    return decision, problems
