"""End-to-end acceptance suite.

Each test covers one shipping criterion and prints a single summary line
(`[accept] <name>: PASS (...)`) with the measured counts, so a verbose run
doubles as the acceptance report. The statistical trials regenerate their
instance families from fixed seeds; nothing is cached between runs.

The campaign fixtures are module-scoped because several criteria share the
same batch of solves (headline rates, union coverage, soundness, and the
negative-curvature metric all read the N=20 campaign).
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dipa.bench import (
    SUPPRESS_DEFLATION,
    SUPPRESS_DELETION,
    BenchConfig,
    grid_paper_def,
    neutral_point,
    run_bench,
)
from dipa.detfun import f_minor, hess, lu_nopivot, value_grad_hess, value_only
from dipa.graph import (
    CycleCertificate,
    build_arc_map,
    enumerate_hc,
    gen_random_graph,
    make_graph,
    petersen,
)
from dipa.inner import max_boundary_step
from dipa.nullspace import build_A, build_Z
from dipa.outer import (
    HC_FOUND,
    DipaParams,
    NoInteriorPoint,
    dipa_solve,
    initial_interior,
    neutral_start,
)


def _report(name: str, detail: str) -> None:
    print(f"[accept] {name}: PASS ({detail})", flush=True)


# ---------------------------------------------------------------------------
# campaign plumbing


def _run_planted(job: tuple) -> dict:
    """Solve one planted instance; returns a picklable record."""
    n, seed, mode, restore, deflation, deletion, time_limit = job
    g = gen_random_graph(n, 3, 6, seed=seed, plant=True)
    params = DipaParams(
        mode=mode,
        restore=restore,
        deflation_threshold=deflation,
        deletion_threshold=deletion,
        time_limit=time_limit,
        seed=seed,
    )
    rep = dipa_solve(g, params)
    return {
        "n": n,
        "seed": seed,
        "mode": mode,
        "status": rep.status,
        "seq": rep.cycle.seq if rep.cycle is not None else None,
        "kinds": tuple(row.kind for row in rep.trace),
    }


def _run_jobs(jobs: list) -> list:
    workers = os.cpu_count() or 1
    if workers <= 1 or len(jobs) <= 1:
        return [_run_planted(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, 8)) as pool:
        return list(pool.map(_run_planted, jobs, chunksize=4))


N20_SEEDS = range(100, 150)
N30_SEEDS = range(200, 250)

CAMPAIGN_SETTINGS = {
    "lp-0.9": ("lp", 0.9),
    "lp-0.95": ("lp", 0.95),
    "qp-0.9": ("qp", 0.9),
    "qp-0.95": ("qp", 0.95),
}


@pytest.fixture(scope="module")
def campaign_n20():
    """All four restore/deflation settings over the 50 planted N=20 seeds."""
    out = {}
    for name, (restore, thr) in CAMPAIGN_SETTINGS.items():
        jobs = [(20, s, "ds", restore, thr, 1e-5, 60.0) for s in N20_SEEDS]
        out[name] = _run_jobs(jobs)
    return out


@pytest.fixture(scope="module")
def campaign_n30():
    jobs = [(30, s, "ds", "lp", 0.9, 1e-5, 60.0) for s in N30_SEEDS]
    return _run_jobs(jobs)


@pytest.fixture(scope="module")
def campaign_nosurgery():
    """Both relaxations with deflation and deletion suppressed, N=20."""
    t0 = time.monotonic()
    out = {}
    for mode in ("ds", "s"):
        jobs = [
            (20, s, mode, "lp", SUPPRESS_DEFLATION, SUPPRESS_DELETION, 60.0)
            for s in N20_SEEDS
        ]
        out[mode] = _run_jobs(jobs)
    return out, time.monotonic() - t0


def _solved(records: list) -> set:
    return {r["seed"] for r in records if r["status"] == HC_FOUND}


# ---------------------------------------------------------------------------
# 1. pivot-free LU on random stochastic matrices


def test_a01_lu_pivot_free_suite():
    rng = np.random.default_rng(2026)
    t0 = time.monotonic()
    count = 0
    for k in range(200):
        n = int(rng.integers(5, 51))
        P = rng.random((n, n))
        P /= P.sum(axis=1, keepdims=True)
        A = np.eye(n) - P
        if k % 2 == 0:
            A = A.T  # zero column sums
        res = lu_nopivot(A)
        count += 1
        off = res.l - np.diag(np.diag(res.l))
        assert np.all(off <= 1e-12)
        assert np.all(off >= -1.0 - 1e-12)
        assert abs(res.u[-1, -1]) <= 1e-10
        # strictly positive stochastic blocks have rank n-1, so the last
        # column of L carries the whole residual mass
        e_last = np.zeros(n)
        e_last[-1] = 1.0
        assert np.max(np.abs(res.l.T @ np.ones(n) - e_last)) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("lu pivot-free suite", f"{count} matrices, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. analytic derivatives against central finite differences


def _random_interior_point(seed: int, mode: str, rng) -> tuple:
    try:
        g = gen_random_graph(10, 3, 6, seed=seed, plant=True)
        m = build_arc_map(g)
        x = initial_interior(m, mode)
    except NoInteriorPoint:
        # a rare support has no strictly interior point; take a fresh seed
        g = gen_random_graph(10, 3, 6, seed=seed + 1000, plant=True)
        m = build_arc_map(g)
        x = initial_interior(m, mode)
    z = build_Z(m, mode=mode)
    d = z.apply(rng.standard_normal(z.dim))
    tmax = max_boundary_step(x, d, upper_log=False)
    if math.isfinite(tmax) and tmax > 0:
        x = x + 0.35 * tmax * d
    return m, x


def test_a02_derivative_oracle():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    for i in range(20):
        mode = "ds" if i % 2 == 0 else "s"
        m, x = _random_interior_point(i, mode, rng)
        fun = lambda v: value_only(v, m, mode)
        _, gd, _ = value_grad_hess(x, m, mode)
        fd_g = np.zeros_like(gd)
        h = 1e-6
        for k in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd_g[k] = (fun(xp) - fun(xm)) / (2 * h)
        assert np.allclose(gd, fd_g, rtol=1e-6, atol=1e-8)

        H = hess(x, m, mode=mode)
        fd_h = np.zeros_like(H)
        hh = 1e-5
        for k in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[k] += hh
            xm[k] -= hh
            fd_h[:, k] = (value_grad_hess(xp, m, mode)[1] - value_grad_hess(xm, m, mode)[1]) / (2 * hh)
        assert np.allclose(H, fd_h, rtol=1e-5, atol=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report("derivative oracle", f"20 interior points, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. objective values at permutation points


def test_a03_objective_anchors():
    hc_points = 0
    multi_points = 0
    for n in range(5, 11):
        for seed in range(10):
            g = gen_random_graph(n, 3, min(6, n - 1), seed=seed, plant=True)
            m = build_arc_map(g)
            cycles = enumerate_hc(g, cap=500000)
            assert cycles, f"planted n={n} seed={seed} lost its cycle"
            for cert in cycles:
                x = np.zeros(m.n_arcs)
                for arc in cert.arcs():
                    x[m.arcs.index(arc)] = 1.0
                assert abs(f_minor(x, m) + 1.0) <= 1e-12
                assert abs(value_only(x, m, "s") + n) <= 1e-9
                hc_points += 1
            if n % 2 == 0:
                # pair consecutive cycle nodes into 2-cycles: a permutation
                # with n/2 cycles supported on the same edge set
                seq = cycles[0].seq
                x = np.zeros(m.n_arcs)
                for k in range(0, n, 2):
                    a, b = seq[k], seq[k + 1]
                    x[m.arcs.index((a, b))] = 1.0
                    x[m.arcs.index((b, a))] = 1.0
                assert abs(f_minor(x, m)) <= 1e-10
                multi_points += 1
    # disjoint pair of triangles: two 3-cycles
    g = make_graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    m = build_arc_map(g)
    x = np.zeros(m.n_arcs)
    for arc in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]:
        x[m.arcs.index(arc)] = 1.0
    assert abs(f_minor(x, m)) <= 1e-10
    multi_points += 1
    _report(
        "objective anchors",
        f"{hc_points} cycle points, {multi_points} multi-cycle points",
    )


# ---------------------------------------------------------------------------
# 4. null-space bases across sizes


def test_a04_nullspace_suite():
    checked = 0
    for n in (6, 10, 20, 35, 50):
        for seed in (0, 1):
            g = gen_random_graph(n, 3, min(6, n - 1), seed=seed, plant=True)
            m = build_arc_map(g)
            adj = g.adjacency()
            degs = [len(adj[v]) for v in sorted(g.nodes)]
            for mode in ("ds", "s"):
                A = build_A(m) if mode == "ds" else build_A(m)[:n]
                z = build_Z(m, mode=mode)
                # the dense basis, one z.apply column per reduced coordinate
                Z = np.array([z.apply(e) for e in np.eye(z.dim)]).reshape(z.dim, z.n_vars).T
                assert np.all(A @ Z == 0.0)
                if mode == "ds":
                    assert z.dim == m.n_arcs - (2 * n - 1)
                    assert set(np.unique(Z)) <= {-1.0, 0.0, 1.0}
                else:
                    assert z.dim == m.n_arcs - n
                    expected = []
                    for d in degs:
                        expected.extend([1.0] * (d - 2) + [float(d)])
                    spectrum = np.linalg.eigvalsh(Z.T @ Z)
                    assert np.allclose(spectrum, sorted(expected), atol=1e-8)
                stacked = np.hstack([A.T, Z])
                assert np.linalg.matrix_rank(stacked) == m.n_arcs
                checked += 1
    _report("null-space suite", f"{checked} bases up to N=50")


# ---------------------------------------------------------------------------
# 5. neutral phase on cubic graphs


def _cubic_family() -> list:
    fam = [make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])]
    # prisms: two parallel cycles joined by rungs
    for half in (3, 4, 5):
        edges = []
        for i in range(half):
            j = (i + 1) % half
            edges.append((i + 1, j + 1))
            edges.append((half + i + 1, half + j + 1))
            edges.append((i + 1, half + i + 1))
        fam.append(make_graph(2 * half, edges))
    # rings with diameters
    for n in (12, 14):
        edges = [(i + 1, (i + 1) % n + 1) for i in range(n)]
        edges += [(i + 1, i + 1 + n // 2) for i in range(n // 2)]
        fam.append(make_graph(n, edges))
    fam.append(petersen())
    return fam


def test_a05_cubic_neutral_anchor():
    count = 0
    for g in _cubic_family():
        assert all(len(nbrs) == 3 for nbrs in g.adjacency().values())
        m = build_arc_map(g)
        for mode in ("ds", "s"):
            if mode == "ds":
                x = neutral_point(g)
            else:
                x = neutral_start(m, DipaParams(mode="s"))[0]
            assert np.max(np.abs(x - 1.0 / 3.0)) <= 1e-8
            for k, (i, j) in enumerate(m.arcs):
                assert abs(x[k] - x[m.arcs.index((j, i))]) <= 1e-8
            count += 1
    _report("cubic neutral anchor", f"{count} graph/mode pairs at x=1/3")


# ---------------------------------------------------------------------------
# 6. relaxation comparison with surgery suppressed


def test_a06_mode_comparison_no_surgery(campaign_nosurgery):
    records, elapsed = campaign_nosurgery
    ds = len(_solved(records["ds"]))
    s = len(_solved(records["s"]))
    assert elapsed < 1800.0
    assert ds >= 45
    assert s < ds
    _report(
        "mode comparison, no surgery",
        f"ds {ds}/50, s {s}/50, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. headline success rates with surgery enabled


def test_a07_headline_success_rates(campaign_n20, campaign_n30):
    n20 = len(_solved(campaign_n20["lp-0.9"]))
    n30 = len(_solved(campaign_n30))
    assert n20 >= 45
    assert n30 >= 44
    _report("headline success rates", f"N=20 {n20}/50, N=30 {n30}/50")


# ---------------------------------------------------------------------------
# 8. union coverage over the four surgery settings


def test_a08_parameter_union_coverage(campaign_n20):
    union: set = set()
    for records in campaign_n20.values():
        union |= _solved(records)
    assert len(union) >= 48
    _report("parameter union coverage", f"{len(union)}/50 across 4 settings")


# ---------------------------------------------------------------------------
# 9. soundness of every reported cycle, and no false positives


def test_a09_soundness(campaign_n20, campaign_n30, campaign_nosurgery):
    revalidated = 0
    pools = list(campaign_n20.values()) + [campaign_n30]
    pools += list(campaign_nosurgery[0].values())
    for records in pools:
        for r in records:
            if r["status"] != HC_FOUND:
                continue
            assert r["seq"] is not None
            g = gen_random_graph(r["n"], 3, 6, seed=r["seed"], plant=True)
            CycleCertificate(r["seq"]).validate(g)
            revalidated += 1
    assert revalidated > 0

    # graphs that provably have no cycle must never yield one
    negatives = 0
    targets = [petersen()]
    for n, dmin, dmax in ((10, 2, 4), (12, 2, 3)):
        for seed in range(25):
            g = gen_random_graph(n, dmin, dmax, seed=seed, plant=False)
            if not enumerate_hc(g, cap=1000000):
                targets.append(g)
    assert len(targets) >= 5
    for g in targets:
        for mode in ("ds", "s"):
            rep = dipa_solve(g, DipaParams(mode=mode, time_limit=30.0))
            assert rep.status != HC_FOUND
            negatives += 1
    _report(
        "soundness",
        f"{revalidated} cycles revalidated, {negatives} negative solves clean",
    )


# ---------------------------------------------------------------------------
# 10. negative-curvature steps dominate after the first trigger


def test_a10_negative_curvature_usage(campaign_n20):
    negcurv = 0
    descent = 0
    runs_counted = 0
    for records in campaign_n20.values():
        for r in records:
            if r["status"] != HC_FOUND or "negcurv" not in r["kinds"]:
                continue
            # the first negative-curvature step marks the onset of
            # indefiniteness; count the accepted steps after it
            after = r["kinds"][r["kinds"].index("negcurv") + 1 :]
            negcurv += sum(k == "negcurv" for k in after)
            descent += sum(k == "descent" for k in after)
            runs_counted += 1
    assert runs_counted > 0
    total = negcurv + descent
    assert total > 0
    share = negcurv / total
    assert share >= 0.5
    _report(
        "negative-curvature usage",
        f"{share:.1%} of {total} post-trigger steps in {runs_counted} runs",
    )


# ---------------------------------------------------------------------------
# 11. benchmark determinism


def test_a11_bench_determinism(tmp_path):
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg = BenchConfig(
            sizes=(8, 10),
            count=3,
            grid="paper-def",
            seed=7,
            out_dir=str(out),
            time_limit=60.0,
            workers=1,
        )
        run_bench(cfg)
        outs.append(out)
    compared = []
    # the timing table holds wall-clock measurements and is reported
    # separately; every result-bearing table must match byte for byte
    for name in ("solves.csv", "results.csv", "combos.csv", "certificates.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    assert grid_paper_def()[0].name == "lp-0.9"
    _report("bench determinism", f"{len(compared)} tables byte-identical")
