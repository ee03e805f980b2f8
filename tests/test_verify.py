import collections
import copy
import dataclasses
import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from prandtl_lab.cutoffs import AuxWorkspace, _masked_reciprocal
from prandtl_lab.grid import Field, dx_m, dy_j, weighted_l2, x_spectrum
from prandtl_lab.norms import gevrey_norm
from prandtl_lab.shear import evolve_shear
from prandtl_lab.solver import Trajectory, recover_v
import prandtl_lab.cli as C
import prandtl_lab.solver as SO
import prandtl_lab.verify as V

from conftest import (REF, _solve, alive, condition_report, evaluate_at, sampled,
                      seminorm_table, wall_levels)


# ---------------------------------------------------------------- residuals

@pytest.fixture(scope="module")
def zero_traj(grid, profile):
    return _solve(Field(grid, np.zeros((grid.Nx, grid.Ny))), profile, "imex", 8)


def test_residuals_vanish_on_shear_only(zero_traj, cutoffs, assumption):
    jobs = [job for job in V.residual_jobs(zero_traj.grid, assumption, cutoffs, "fgh")
            if job.m <= 2]
    bound = {"g": 1e-14, "f": 1e-12, "h": 1e-11}
    for job, (r, s, d) in zip(jobs, evaluate_at(zero_traj, jobs, 4)):
        assert r <= bound[job.kind]


def test_residual_orders(ladder_rows):
    for job, levels in ladder_rows:
        if job.m <= 2:
            assert V.residual_report(job, levels).observed_order >= 1.0


def test_residual_levels_fold_as_they_arrive(lab, traj_imex, u0, profile, monkeypatch):
    """walk folds each level into its Richardson difference as it arrives:
    the levels advance in lockstep, and when a level's residual field at a
    node is formed, only the previous level's field of that node is alive,
    and none are once the walk is done.  The difference equals the one of
    the fields evaluated node by node.  The first two levels are whole
    solves and the third streams: walk reads both alike."""
    job = V.ResidualJob("g", 1)
    nts = V.ladder_nts(REF.nt)
    ladder = [traj_imex, _solve(u0, profile, "imex", nts[1]), lab.check_solve(nts[2])]
    direct = [[next(evaluate_at(traj, [job], i))[2]
               for i in V._eval_indices(len(traj.times) - 1)] for traj in ladder[:2]]
    refs = []                  # weak references to the residual fields, in walk order
    real = V._residual

    def tracked(*args):
        out = real(*args)
        level = len(refs) % len(ladder)
        if level:
            assert len(alive(refs)) == 1 and alive(refs)[0] is refs[-1]
        else:
            assert alive(refs) == []
        refs.append(weakref.ref(out[2]))
        return out

    monkeypatch.setattr(V, "_residual", tracked)
    [rows], _ = V.walk(ladder, [job])
    assert len(refs) == 3 * len(ladder)
    assert alive(refs) == []
    assert rows[0].richardson is None
    assert rows[1].richardson == max(V._interior_l2(lab.grid, a - b)
                                     for a, b in zip(*direct))


def test_snapshot_v_is_recovered_from_u(traj_imex, traj_picard):
    """A trajectory stores u alone; the snapshot's v is bitwise the value the
    solvers form, recover_v(u, dx_m(u, 1))."""
    assert "v" not in {f.name for f in dataclasses.fields(Trajectory)}
    for traj in (traj_imex, traj_picard):
        for i, u in enumerate(traj.u):
            assert np.array_equal(V.Snapshot(traj, i).v.values,
                                  recover_v(u, dx_m(u, 1)).values)


def test_checks_read_the_profile_shear_not_the_solver_copy(grid, profile, cutoffs, assumption,
                                                            monkeypatch):
    """A check does not read the solver's copy of the shear: with the
    solvers handed every state frozen at t = 0 (solver._time_grid patched),
    every Snapshot of a check-only walk and every seminorm row of a Lab's
    table still reads the profile's own state at its node,
    evolve_shear(profile, t) with state.t == t, and the trajectory keeps no
    list of states."""
    assert "shear" not in {f.name for f in dataclasses.fields(Trajectory)}
    real_grid, real_raw = SO._time_grid, C.full_raw

    def frozen(p, cfg):
        times, _ = real_grid(p, cfg)
        return times, [evolve_shear(p, 0.0)] * len(times)

    class Tracked(V.Snapshot):
        def __init__(self, traj, i):
            super().__init__(traj, i)
            read.append((self.state, traj.times[i]))

    read, rows = [], []
    monkeypatch.setattr(SO, "_time_grid", frozen)
    monkeypatch.setattr(V, "Snapshot", Tracked)
    monkeypatch.setattr(C, "full_raw",
                        lambda u, st, cut, p: rows.append(st) or real_raw(u, st, cut, p))
    lab = C.Lab(dataclasses.replace(REF, nt=8, checks=("energy",)))
    assert lab.profile is profile
    V.walk([lab.check_solve(8)], V.residual_jobs(grid, assumption, cutoffs, "f"))
    assert len(read) == 3 * len(V._eval_indices(8))     # each centre and its neighbours
    times = lab.table.times
    assert len(rows) == len(times) and rows[0] is evolve_shear(profile, 0.0)
    for state, t in read + list(zip(rows, times))[1:]:
        assert state is evolve_shear(profile, t) and state.t == t > 0.0


def test_bundle_members_formed_only_where_read(lab, traj_imex, traj_picard, assumption, params,
                                              monkeypatch, snapshots):
    """v, g1 and their spectra are formed on first read.  In a residual
    triple only the centre reads v, so recover_v runs once per triple, not
    three times; condition_row forms v once per row (and releases it once
    read) but never reads g_m, so none of its snapshots forms g1 or its
    spectrum.  Plain attributes would fail both counts.  Likewise for the
    bundle's d_y omega spectrum, inv_om, a, inv_dyom and b: condition_row
    forms none of the four quotient members, the boundary walk neither
    inv_dyom nor b, and the boundary walk forms no d_y omega spectrum.  The
    three checked here are read-only and bitwise the value formed from the
    bundle's eager members."""
    calls = []
    real = V.recover_v
    monkeypatch.setattr(V, "recover_v", lambda u, dxu: calls.append(1) or real(u, dxu))
    jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh")
    list(evaluate_at(traj_imex, jobs, 12))
    assert len(calls) == 1

    def members(walk) -> list:          # of each Snapshot walk() builds, as it dies
        n = len(snapshots)
        walk()
        assert alive(b.ref for b in snapshots[n:]) == []
        return [b.formed for b in snapshots[n:]]

    calls.clear()
    formed = members(lambda: condition_report(traj_picard, assumption, params))
    assert len(formed) == len(calls) == len(traj_picard.times)
    assert not any({"g1", "spec_g1", "inv_om", "a", "inv_dyom", "b"} & keys for keys in formed)

    formed = members(lambda: V.boundary_checks(wall_levels([traj_imex], assumption)))
    assert len(formed) == len(V._eval_indices(len(traj_imex.times) - 1))
    assert not any({"spec_dyom", "inv_dyom", "b"} & keys for keys in formed)

    s = V.Snapshot(traj_imex, 12)
    for member, eager in (("spec_dyom", lambda: x_spectrum(s.dyom.values)),
                          ("inv_dyom", lambda: _masked_reciprocal(s.dyom_tot)),
                          ("b", lambda: s.d2yom_tot * s.inv_dyom)):
        assert member not in vars(s)
        assert np.array_equal(getattr(s, member), eager())
        assert not getattr(s, member).flags.writeable


@pytest.mark.parametrize("walk", ["boundary", "conditions", "residuals"])
def test_node_walks_hold_one_snapshot(walk, lab, traj_imex, traj_fine, traj_picard, traj_ladder,
                                      params, snapshots):
    """Each walk over a trajectory's nodes drops a node's snapshot before it
    builds the next: no Snapshot is built while another is alive, the
    residual ladder's lockstep walk with its wall traces included."""
    run = {"boundary": lambda: V.boundary_checks(wall_levels([traj_imex, traj_fine], lab.report)),
           "conditions": lambda: condition_report(traj_picard, lab.report, params),
           "residuals": lambda: V.walk(
               traj_ladder[:2], V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh"),
               lab.report)}
    run[walk]()
    assert snapshots and max(b.others for b in snapshots) == 0


def test_walk_forms_each_member_once(lab, monkeypatch):
    """The snapshots' releases never have a member formed again: over the
    ladder's walk with the first level's wall traces and over the
    dy-refinement companion's, no Snapshot forms a member that is formed on
    first read, or a memoised x-derivative, twice; and each centre snapshot
    has released the f-only members (the quotient a, its pack and d_y^3
    omega_tot) and d_y omega by the time it dies."""
    formed = []
    tallies = _tally_formations(monkeypatch, formed)
    nt = 8
    jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh")
    V.walk([lab.check_solve(n) for n in V.ladder_nts(nt)], jobs, lab.report)
    V.walk([lab.fine.check_solve(nt)], rep=lab.report)
    assert len(tallies) == 3 * 3 * len(V.ladder_nts(nt)) + len(V._eval_indices(nt))
    assert {"quotient_pack_f", "quotient_pack_h", "g1", ("spec_u", 4)} <= set().union(*tallies)
    assert max(n for tally in tallies for n in tally.values()) == 1
    alive([])       # collects the snapshots
    centres = [keys for keys in formed if "v" in keys]
    assert len(centres) == 3 * len(V.ladder_nts(nt)) + len(V._eval_indices(nt))
    assert not any({"a", "inv_om", "quotient_pack_f", "d3yom_tot", "dyom"} & keys
                   for keys in centres)


def _tally_formations(monkeypatch, formed=None) -> list:
    """Patch verify.Snapshot through monkeypatch with a subclass each of
    whose instances tallies, in a Counter appended to the returned list, the
    members it forms on first read and the memoised x-derivatives it forms;
    with a list formed, each instance appends to it, as it dies, the set of
    its attributes."""
    tallies = []

    class Tallied(V.Snapshot):
        def __init__(self, traj, i):
            self.tally = collections.Counter()
            tallies.append(self.tally)
            super().__init__(traj, i)

        def __del__(self):
            if formed is not None:
                formed.append(set(vars(self)))

        def _dx(self, spec, m):
            if (spec, m) not in self._dx_memo:
                self.tally[(spec, m)] += 1
            return super()._dx(spec, m)

    for cls in V.Snapshot.__mro__:
        for name, prop in vars(cls).items():
            if isinstance(prop, functools.cached_property) and name not in vars(Tallied):
                tallied = functools.cached_property(
                    lambda self, func=prop.func, name=name: self.tally.update([name]) or func(self))
                tallied.__set_name__(Tallied, name)
                setattr(Tallied, name, tallied)
    monkeypatch.setattr(V, "Snapshot", Tallied)
    return tallies


def _level_bits(row) -> list:
    return [(np.array(level.norms + level.scales).tobytes(), level.richardson) for level in row]


def _wall_bits(walls) -> dict:
    return {key: {k: np.float64(v).tobytes() for k, v in w.items()} for key, w in walls.items()}


@pytest.fixture(scope="module")
def fgh_walk(lab):
    """(jobs, rows, walls) of a one-level walk at nt = 8 of every residual
    job, with the wall traces."""
    jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, "fgh")
    return (jobs, *V.walk([lab.check_solve(8)], jobs, lab.report))


@pytest.mark.parametrize("with_rep", [True, False], ids=["rep", "no_rep"])
@pytest.mark.parametrize("kinds", ["f", "g", "h", "fg", "fh", "gh"])
def test_walk_releases_on_every_kind_subset(kinds, with_rep, lab, fgh_walk, monkeypatch):
    """[verify] checks may enable any subset of the residual kinds, so the
    walk's release schedule must hold on each: a one-level walk at nt = 8 of
    each proper non-empty subset, with the wall traces and without, forms
    no Snapshot member twice, and its rows and wall traces are bitwise those
    of the walk of every kind (fgh_walk) for the same jobs."""
    tallies = _tally_formations(monkeypatch)
    jobs = V.residual_jobs(lab.grid, lab.report, lab.cut, kinds)
    rows, walls = V.walk([lab.check_solve(8)], jobs, lab.report if with_rep else None)
    assert tallies and max(n for tally in tallies for n in tally.values()) == 1
    every_jobs, every_rows, every_walls = fgh_walk
    by_job = {(job.kind, job.m): row for job, row in zip(every_jobs, every_rows)}
    assert [_level_bits(row) for row in rows] == [_level_bits(by_job[job.kind, job.m])
                                                  for job in jobs]
    assert _wall_bits(walls) == (_wall_bits(every_walls) if with_rep else {})


def test_adjacent_windows_share_nodes(lab, tmp_path):
    """At nt = 4 the two evaluation windows (nodes 1-3 and 2-4) share two
    nodes: walk reads the streamed solve as it reads the whole one, to the
    bit, and a boundary-only full exits 0."""
    nt = 4
    assert V._eval_indices(nt) == [2, 3]
    streamed = V.walk([lab.check_solve(nt)], rep=lab.report)[1]
    whole = V.walk([_solve(lab.u0, lab.profile, "imex", nt)], rep=lab.report)[1]
    assert list(streamed) == list(whole) and len(streamed) == 1
    [(a, b)] = zip(streamed.values(), whole.values())
    assert a.keys() == b.keys() and all(np.float64(a[k]).tobytes() == np.float64(b[k]).tobytes()
                                        for k in a)
    cfg = dataclasses.replace(REF, nt=nt, checks=("assumption", "boundary"))
    assert C.run(cfg, "full", out_dir=tmp_path) == 0


def test_condition_row_releases_what_it_reads(lab, traj_picard, params):
    """A condition row (one node of Lab.table's pass) releases each snapshot
    member once read and forms no quotient member: its tracemalloc peak,
    its shear state formed beforehand, stays under 14 fields of Nx Ny
    doubles.  Measured 11.1; it read 26.1 while its snapshot formed inv_om
    and a when built and kept every member to its end."""
    i = len(traj_picard.times) // 2
    evolve_shear(lab.profile, float(traj_picard.times[i])).dj_omegas
    tracemalloc.start()
    try:
        V.condition_row(traj_picard, i, lab.report, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * lab.grid.Nx * lab.grid.Ny * 8


def test_boundary_walk_memory_peak(lab, traj_imex, traj_fine, grid_fine):
    """The boundary walk of the coarse/fine pair, with its reduction, holds
    one snapshot and its node's temporaries, its snapshot releases each
    member once no step still to come reads it (d_y omega at once, the
    window's nodes i -/+ 1 once the trace formulas have read them), and no
    grid keeps a dense y-stencil operator: its tracemalloc peak stays under
    20 fields of Nx Ny doubles of the fine grid, and what it leaves behind
    (the grids' stencil bands) under 2.  It peaks at 19.1 and leaves 0.01,
    so the bound leaves about 0.9 fields (5%).  While the wall traces
    released each member after its last read but d_y omega and the nodes
    stayed to the node's end it peaked at 21.1 (21.8 on an earlier host);
    while they kept every member, at 32.9; with the dense operators cached
    on each grid too, at 45.4, leaving 15.2."""
    pair = [traj_imex, traj_fine]
    tracemalloc.start()
    try:
        V.boundary_checks(wall_levels(pair, lab.report))
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    g = grid_fine
    assert peak < 20 * g.Nx * g.Ny * 8
    assert now < 2 * g.Nx * g.Ny * 8


def _zeroed(real, k0):
    """A Snapshot method that returns zeros at order k0 and real elsewhere."""
    return lambda self, k: (Field(self.grid, np.zeros_like(self.u.values)) if k == k0
                            else real(self, k))


# per case: the kind and m, the Snapshot input zeroed (method, order), the
# right-hand-side term it alone carries (of the centre snapshot and eps), and
# a floor on that term's norm relative to the identity's scale; the v-sum
# cases ablate the transport commutator's d_x v terms of f and h
_ABLATIONS = [
    pytest.param("f", 1, ("dxu", 2),
                 lambda s0, eps: 2.0 * eps * s0.quotient_pack_f[1] * s0.dxu(2).values, 1e-4,
                 id="f"),
    pytest.param("g", 2, ("dxv", 1),
                 lambda s0, eps: s0.dxv(1).values * dy_j(s0.g(1), 1).values, 1e-5, id="g"),
    pytest.param("h", 1, ("g", 2), lambda s0, eps: s0.g(2).values, 1e-2, id="h"),
    pytest.param("f", 2, ("dxv", 1),
                 lambda s0, eps: 2.0 * s0.dxv(1).values
                 * (s0.dxdyom(1).values - s0.a * s0.dxom(1).values), 1e-4, id="f-v-sum"),
    pytest.param("h", 2, ("dxv", 1),
                 lambda s0, eps: 2.0 * s0.dxv(1).values
                 * (s0.dxd2yom(1).values - s0.b * s0.dxdyom(1).values), 1e-4, id="h-v-sum"),
]


@pytest.mark.parametrize("kind, m, zeroed, term, floor", _ABLATIONS)
def test_residual_ablation(kind, m, zeroed, term, floor, traj_imex, lab, monkeypatch):
    """Zeroing the one input that a right-hand-side term alone reads moves
    the residual field by exactly that term's interior norm: every
    right-hand-side term is wired in, and the frame reads the snapshot's
    methods when it is called."""
    method, order = zeroed
    i = V._eval_indices(len(traj_imex.times) - 1)[1]
    [job] = [j for j in V.residual_jobs(lab.grid, lab.report, lab.cut, kind) if j.m == m]
    [(_, scale, d_full)] = evaluate_at(traj_imex, [job], i)
    t = term(V.Snapshot(traj_imex, i), traj_imex.eps)
    tnorm = V._interior_l2(traj_imex.grid, t if job.chi is None else job.chi[None, :] * t)
    monkeypatch.setattr(V.Snapshot, method, _zeroed(getattr(V.Snapshot, method), order))
    [(_, _, d_ablate)] = evaluate_at(traj_imex, [job], i)
    moved = V._interior_l2(traj_imex.grid, d_ablate - d_full)
    assert np.isclose(moved, tnorm, rtol=1e-10)
    assert tnorm > floor * scale    # the term is not numerically negligible


def test_residual_g_eps_wiring(u0, profile):
    """Doubling eps and re-solving changes the eps-labelled right-hand side
    groups by about a factor two."""
    def eps_terms(traj, i):
        s0 = V.Snapshot(traj, i)
        m = 2
        total = np.zeros((traj.grid.Nx, traj.grid.Ny))
        from math import comb
        for j in range(0, m):
            c = comb(m - 1, j)
            total += 2.0 * traj.eps * c * (
                s0.dxdyom(j + 1).values * s0.dxu(m - j + 1).values
                - s0.dxom(j + 1).values * s0.dxom(m - j + 1).values)
        return weighted_l2(Field(traj.grid, total), 0.0)

    tr1 = _solve(u0, profile, "imex", 16, eps=0.1)
    tr2 = _solve(u0, profile, "imex", 16, eps=0.2)
    a, b = eps_terms(tr1, 8), eps_terms(tr2, 8)
    assert 1.6 <= b / a <= 2.4


# ----------------------------------------------------------------- boundary

def test_boundary_zero_perturbation(zero_traj, assumption):
    rep = V.boundary_checks(wall_levels([zero_traj], assumption))
    lv = next(iter(rep.evidence["levels"].values()))
    assert lv["dy_g_wall"] <= 1e-13
    assert lv["dy_f_wall"] <= 1e-13
    assert lv["third_trace"] <= 1e-10
    assert lv["fifth_trace"] <= 1e-8


def test_boundary_detects_wall_slope_of_g(zero_traj, assumption, monkeypatch):
    """Negative control: a g_m with a nonzero wall slope fails d_y g_m = 0."""
    assert V.boundary_checks(wall_levels([zero_traj], assumption)).passed
    y = zero_traj.grid.y_nodes
    monkeypatch.setattr(V.Snapshot, "g", lambda self, m: Field(
        self.grid, np.outer(np.sin(self.grid.x_nodes), y * np.exp(-y))))
    rep = V.boundary_checks(wall_levels([zero_traj], assumption))
    assert not rep.passed
    lv = next(iter(rep.evidence["levels"].values()))
    assert lv["dy_g_wall"] > 5e-2 * lv["dy_g_scale"]


def test_boundary_checks_drop_their_snapshots(zero_traj, assumption, snapshots):
    """One snapshot per node: the centered d_t reads only omega at i -/+ 1."""
    V.boundary_checks(wall_levels([zero_traj], assumption))
    assert len(snapshots) == len(V._eval_indices(len(zero_traj.times) - 1))
    assert alive(b.ref for b in snapshots) == []


def test_boundary_orders(traj_imex, traj_fine, assumption):
    rep = V.boundary_checks(wall_levels([traj_imex, traj_fine], assumption))
    assert rep.passed, rep.evidence
    assert rep.evidence["orders"]["third_trace"] >= 2.0
    assert rep.evidence["orders"]["fifth_trace"] >= 1.0


def test_boundary_order_gate_fails_alone(traj_imex, traj_fine, grid_fine, assumption,
                                         monkeypatch):
    """Negative control for the dy-order gate: fifth_trace has no ratio
    gate, so inflating it 4x on the Ny = 513 level lowers its order by 2,
    under 1, while every finest-level ratio and the third_trace order still
    pass; the check then fails through the order gate alone."""
    real = V._wall_traces
    fine_ny = grid_fine.Ny

    def inflated(traj, *args):
        out = real(traj, *args)
        if traj.grid.Ny == fine_ny:
            out["fifth_trace"] *= 4.0
        return out

    monkeypatch.setattr(V, "_wall_traces", inflated)
    rep = V.boundary_checks(wall_levels([traj_imex, traj_fine], assumption))
    fin = min(rep.evidence["levels"].values(), key=lambda lv: lv["dy"])
    assert fin["dy"] == grid_fine.dy
    assert fin["dy_g_wall"] <= 5e-2 * fin["dy_g_scale"]
    assert fin["dy_f_wall"] <= 5e-2 * fin["dy_f_scale"]
    assert fin["third_trace"] <= 1e-2 * fin["third_scale"]
    assert rep.evidence["orders"]["third_trace"] >= 2.0
    assert rep.evidence["orders"]["fifth_trace"] < 1.0
    assert not rep.passed


@pytest.fixture(scope="module")
def pair_levels(traj_imex, traj_fine, assumption):
    """The walked wall-trace levels of the coarse/fine pair."""
    return wall_levels([traj_imex, traj_fine], assumption)


def _boundary_gates(rep) -> dict:
    """Each of boundary_checks' five gates, read from its report."""
    fin = min(rep.evidence["levels"].values(), key=lambda lv: lv["dy"])
    orders = rep.evidence["orders"]
    return {"dy_g_wall": fin["dy_g_wall"] <= 5e-2 * fin["dy_g_scale"],
            "dy_f_wall": fin["dy_f_wall"] <= 5e-2 * fin["dy_f_scale"],
            "third_trace": fin["third_trace"] <= 1e-2 * fin["third_scale"],
            "third_order": orders["third_trace"] >= 2.0,
            "fifth_order": orders["fifth_trace"] >= 1.0}


def _set_order(coarse, fine, key, order):
    """coarse[key] such that key's dy-order between the levels is order."""
    coarse[key] = fine[key] * (coarse["dy"] / fine["dy"]) ** order


def _break_third_ratio(coarse, fine):
    k = 2e-2 * fine["third_scale"] / fine["third_trace"]
    coarse["third_trace"] *= k          # both levels alike: the order holds
    fine["third_trace"] *= k


_BREAKS = {
    "dy_g_wall": lambda coarse, fine: fine.update(dy_g_wall=1e-1 * fine["dy_g_scale"]),
    "dy_f_wall": lambda coarse, fine: fine.update(dy_f_wall=1e-1 * fine["dy_f_scale"]),
    "third_trace": _break_third_ratio,
    "third_order": lambda coarse, fine: _set_order(coarse, fine, "third_trace", 1.5),
    "fifth_order": lambda coarse, fine: _set_order(coarse, fine, "fifth_trace", 0.5),
}


@pytest.mark.parametrize("gate", list(_BREAKS))
def test_every_boundary_gate_can_fail(gate, pair_levels):
    """Negative controls of the reducer: breaking one gate in the walked
    levels of the coarse/fine pair (a finest-level ratio at twice its bound,
    or a dy-order under its floor) fails the report while the other four
    gates still hold."""
    assert all(_boundary_gates(V.boundary_checks(pair_levels)).values())
    levels = {key: dict(level) for key, level in pair_levels.items()}
    coarse, fine = sorted(levels.values(), key=lambda lv: -lv["dy"])
    _BREAKS[gate](coarse, fine)
    rep = V.boundary_checks(levels)
    assert not rep.passed
    assert _boundary_gates(rep) == {g: g != gate for g in _BREAKS}


# ------------------------------------------------------------- cancellation

def test_cancellation_identity(grid, profile, cutoffs, assumption, u0):
    st = evolve_shear(profile, 0.0)
    rep = V.cancellation_check(u0, st, cutoffs, assumption)
    assert rep.passed
    assert rep.evidence["worst_rel"] <= 1e-4


def test_cancellation_refines(lab, profile, cutoffs, assumption, u0):
    st = evolve_shear(profile, 0.0)
    coarse = V.cancellation_check(u0, st, cutoffs, assumption).evidence["worst_rel"]
    fs = lab.fine
    st_f = evolve_shear(fs.profile, 0.0)
    fine = V.cancellation_check(fs.u0, st_f, fs.cut, fs.report).evidence["worst_rel"]
    assert np.log2(coarse / fine) >= 3.0


def test_cancellation_detects_dropped_term(profile, cutoffs, assumption, u0, monkeypatch):
    """Negative control: f_m without its a dx^m u term no longer matches the
    quotient form, and the check fails."""
    monkeypatch.setattr(AuxWorkspace, "q_f", lambda self, m: self.dxom(m).values)
    rep = V.cancellation_check(u0, evolve_shear(profile, 0.0), cutoffs, assumption)
    assert not rep.passed
    assert rep.evidence["worst_rel"] > 1e-4


# ------------------------------------------------------- pointwise analysis

def test_sobolev_hundred_fields(grid):
    rep = V.sobolev_check(grid, seed=12)
    assert rep.passed
    assert rep.evidence["violations"] == 0
    assert rep.evidence["max_ratio"] < 1.0


def test_sobolev_detects_dropped_bound_terms(grid, monkeypatch):
    """Negative control: with every term of the bound dropped, each field
    violates it and the check fails.  (Dropping only the derivative terms
    keeps every ratio below 0.54 on these fields: the check cannot flip.)"""
    assert V.sobolev_check(grid, seed=12).passed
    monkeypatch.setattr(V, "weighted_l2", lambda f, ellw: 0.0)
    with np.errstate(divide="ignore"):       # linf(h) / 0: the ratio is inf
        rep = V.sobolev_check(grid, seed=12)
    assert not rep.passed
    assert rep.evidence["violations"] == rep.evidence["count"]
    assert rep.evidence["max_ratio"] == np.inf


def test_sobolev_fields_match_meshgrid_form(grid, grid_fine):
    """Each random field, built from 1-D factors on the lab's generator, is
    bitwise the meshgrid formula on numpy's default_rng draws of the same
    seed: the field form, the draw order and the draw stream are unchanged."""
    for g in (grid, grid_fine):
        rng, ref_rng = V._DefaultRng(5), np.random.default_rng(5)
        X, Y = np.meshgrid(g.x_nodes, g.y_nodes, indexing="ij")
        for _ in range(50):
            vals = np.zeros((g.Nx, g.Ny))
            for _ in range(ref_rng.integers(1, 4)):
                k = int(ref_rng.integers(0, max(g.Nx // 8, 2) + 1))
                phase = ref_rng.uniform(0, 2 * np.pi)
                c = ref_rng.uniform(0.2, 3.0)
                q = ref_rng.uniform(0.1, 1.5)
                p = int(ref_rng.integers(0, 3))
                amp = ref_rng.uniform(0.1, 2.0)
                vals += amp * np.cos(2 * np.pi * k * X / g.Lx + phase) \
                    * (Y ** p) * np.exp(-q * (Y - c) ** 2)
            assert np.array_equal(V._sobolev_field(g, rng).values, vals)


def _sobolev_draws(rng, kmax, fields=40):
    """The draws of `fields` _sobolev_field calls, in its order, as Python
    numbers (floats by their hex form, so equality is bitwise)."""
    out = []
    for _ in range(fields):
        terms = int(rng.integers(1, 4))
        out.append(terms)
        for _ in range(terms):
            out.append(int(rng.integers(0, kmax + 1)))
            out += [float(rng.uniform(*b)).hex() for b in ((0, 2 * np.pi), (0.2, 3.0), (0.1, 1.5))]
            out.append(int(rng.integers(0, 3)))
            out.append(float(rng.uniform(0.1, 2.0)).hex())
    return out


def _sweep_seeds():
    """The `seed` of every operation of perfbench's seed-0 sweep plan."""
    from test_benchmark_targets import _WORKLOADS
    return [op["overrides"]["seed"] for op in _WORKLOADS.plan("perturbation-sweep", 0)["ops"]]


@pytest.mark.parametrize("seed", [0, 5, 12, *_sweep_seeds(), 2**32 + 7, 2**130 + 3])
def test_sobolev_generator_is_default_rng(seed):
    """The lab's generator draws numpy.random.default_rng(seed)'s stream bit
    for bit on _sobolev_field's pattern, at the grids' kmax (Nx // 8 or 2),
    for seeds of one, two and five 32-bit words (five take SeedSequence's
    branch for entropy beyond its pool of four)."""
    for kmax in (2, 4, 8, 32):
        assert _sobolev_draws(V._DefaultRng(seed), kmax) \
            == _sobolev_draws(np.random.default_rng(seed), kmax)


def test_sobolev_check_evidence_is_default_rng(grid, monkeypatch):
    """sobolev_check gives the same evidence on numpy's default_rng."""
    ours = V.sobolev_check(grid, seed=12)
    monkeypatch.setattr(V, "_DefaultRng", np.random.default_rng)
    assert V.sobolev_check(grid, seed=12) == ours


def test_sobolev_generator_rejects_wide_ranges():
    """Ranges wider than 32 bits (numpy's 64-bit Lemire branch) and empty
    ones raise; a one-value range returns its value without a draw."""
    rng = V._DefaultRng(0)
    for lo, hi in ((0, 2**32 + 1), (-1, 2**32), (3, 3), (4, 3)):
        with pytest.raises(ValueError):
            rng.integers(lo, hi)
    ref = np.random.default_rng(0)
    assert rng.integers(7, 8) == ref.integers(7, 8) == 7
    assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)
    assert rng.integers(0, 2**32) == ref.integers(0, 2**32)


def test_sobolev_single_example(grid):
    from prandtl_lab.grid import dx_m, dy_j, linf
    h = sampled(grid, lambda X, Y: np.sin(X) * np.exp(-Y))
    bound = np.sqrt(2) * (weighted_l2(h, 0) + weighted_l2(dx_m(h, 1), 0)
                          + weighted_l2(dy_j(h, 1), 0)
                          + weighted_l2(dy_j(dx_m(h, 1), 1), 0))
    assert linf(h) <= bound


def test_inequality_suite():
    rep = V.inequality_suite()
    assert rep.passed
    assert rep.evidence["factorial_violations"] == []
    assert rep.evidence["geometric_violations"] == []
    # spot values: 3!4! <= 7!, and k=10, rho=0.5, tr=1.0
    import math
    assert math.factorial(3) * math.factorial(4) == 144 <= 5040
    assert 10 * 0.5**10 <= 1.0 / 0.5


# ----------------------------------------------------------------- monitors

def test_condi_passes_at_reference(traj_picard, assumption, params, snapshots):
    rep = condition_report(traj_picard, assumption, params)
    assert len(snapshots) == len(traj_picard.times)
    assert alive(b.ref for b in snapshots) == []      # each snapshot read once, then dropped
    assert rep.passed
    assert rep.evidence["first_failure_time"] is None
    assert rep.evidence["clause4_max"] <= 1.0


def test_condi_detects_large_amplitude(grid, profile, assumption, params):
    from prandtl_lab.profiles import build_perturbation
    big = build_perturbation(grid, 0.5, 1, profile)
    traj = _solve(big, profile, "imex", 16)
    rep = condition_report(traj, assumption, params)
    assert not rep.passed
    assert rep.evidence["first_failure_time"] is not None
    assert rep.evidence["first_failure_time"] < REF.t_final


def test_condi_detects_inflated_c0(traj_picard, assumption, params):
    """Negative control: with c0 inflated tenfold the strip floor (clause 1)
    fails at t = 0, and no other clause does."""
    inflated = dataclasses.replace(assumption, c0=10.0 * assumption.c0)
    rep = condition_report(traj_picard, inflated, params)
    assert not rep.passed
    assert rep.evidence["first_failure_time"] == 0.0
    assert rep.evidence["failing_clauses"] == ["1"]


def test_energy_monitor(traj_picard, picard_raws, params):
    rep = V.energy_monitor(picard_raws, traj_picard.times, params, (0.3, 0.4))
    assert rep.passed
    assert np.isfinite(rep.evidence["C_max"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_energy_monitor_fails_on_non_finite_seminorm(traj_picard, picard_raws, params, bad):
    """Negative control: the energy monitor's one rule is that C is finite at
    every stored time, so one non-finite entry of the seminorm table (a mixed
    seminorm at the middle time) fails it; inf gives C = inf / inf there."""
    raws = list(picard_raws)
    k = len(raws) // 2
    raws[k] = dataclasses.replace(raws[k], mixed={**raws[k].mixed, (0, 1): bad})
    with np.errstate(invalid="ignore"):
        rep = V.energy_monitor(raws, traj_picard.times, params, (0.3, 0.4))
    assert rep.passed is False
    assert not np.isfinite(rep.evidence["C_max"])


def test_energy_monitor_vacuous(zero_traj, params, cutoffs):
    raws = seminorm_table(zero_traj, cutoffs, params)
    rep = V.energy_monitor(raws, zero_traj.times, params, (0.3, 0.4))
    assert rep.passed
    assert rep.evidence["vacuous"] is True


def test_energy_rho_gap_wiring(picard_raws, params):
    """Halving rho_tilde - rho roughly doubles the final 1/(gap) integral when
    the norm is insensitive to rho_tilde in that range."""
    vals = {}
    for gap in (0.1, 0.05):
        tot = 0.0
        for raw in (picard_raws[0], picard_raws[-1]):
            v = gevrey_norm(raw, dataclasses.replace(params, rho=0.3 + gap), with_aux=True)
            tot += v**2 / gap
        vals[gap] = tot
    assert 1.5 <= vals[0.05] / vals[0.1] <= 2.5


def test_radius_decay(traj_picard, picard_raws, params):
    em = V.energy_monitor(picard_raws, traj_picard.times, params, (0.3, 0.4))
    rep = V.radius_decay_check(picard_raws, traj_picard.times, params, 0.5,
                               max(1.0, em.evidence["C_max"]))
    assert rep.passed
    assert rep.evidence["margin"] > 0


def test_radius_decay_detects_small_constant(traj_picard, picard_raws, params):
    """Negative control: C* = 1e-3 shrinks the radius R = 4 C* C_hat (N0 + N0^2)
    below the lifespan norm of the reference seminorm table, and the check
    fails."""
    rep = V.radius_decay_check(picard_raws, traj_picard.times, params, 0.5, 1e-3)
    assert not rep.passed
    assert rep.evidence["lifespan_norm"] > rep.evidence["R"]


def test_lambda_arithmetic():
    """lambda from the half-contraction balance: C*=1, R=1 gives 24."""
    c_star, R = 1.0, 1.0
    lam = 4.0 * (5.0 * c_star + c_star * R**2)
    assert lam == 24.0


def test_contraction_check(traj_picard):
    rep = V.picard_contraction_check(traj_picard)
    assert rep.passed
    assert rep.evidence["geometric_rate"] <= 0.75
    assert not rep.evidence["inconclusive"]


def test_contraction_detects_slow_decay(traj_picard):
    """Negative control: update norms shrinking by 0.8 per sweep fail the
    0.75 tail-ratio bound."""
    slow = copy.copy(traj_picard)
    slow.contraction = [traj_picard.contraction[0] * 0.8 ** k for k in range(5)]
    rep = V.picard_contraction_check(slow)
    assert not rep.passed
    assert min(rep.evidence["ratios"][1:]) > 0.75


def test_contraction_inconclusive(traj_picard):
    short = copy.copy(traj_picard)
    short.contraction = traj_picard.contraction[:2]
    rep = V.picard_contraction_check(short)
    assert not rep.passed
    assert rep.evidence["inconclusive"]


def test_condi_zero_perturbation(zero_traj, assumption, params):
    """Shear alone within the persistence window satisfies the relaxed
    pointwise conditions (clause four is trivially zero)."""
    rep = condition_report(zero_traj, assumption, params)
    assert rep.passed
    assert rep.evidence["clause4_max"] == 0.0


def test_radius_zero_trajectory(zero_traj, params, cutoffs):
    raws = seminorm_table(zero_traj, cutoffs, params)
    rep = V.radius_decay_check(raws, zero_traj.times, params, 0.5, 1.0)
    assert rep.evidence["lifespan_norm"] == 0.0
    assert rep.passed

