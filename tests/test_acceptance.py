"""End-to-end acceptance checks for the fusion toolkit.

Each test covers one release criterion and prints a single [acceptance]
PASS/FAIL line to the real stdout (so the lines survive pytest capture),
then asserts. Stated runtime budgets are asserted too.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from gcnfuse import (
    ArchSpec,
    BatchNormParams,
    DenseParams,
    FgwProblem,
    FusionConfig,
    GeneratorSpec,
    SinkhornParams,
    TransportPlan,
    align_batchnorm,
    align_layer_incoming,
    align_layer_outgoing,
    emd,
    evaluate_mae,
    fuse,
    label_with_model,
    permute_model,
    perturb_model,
    predict,
    random_model,
    sinkhorn_unbalanced,
    synthesize_dataset,
    uniform_weights,
    vanilla_fuse,
)
from gcnfuse.cli import main
from gcnfuse.ot import fgw_distance
from conftest import assert_models_equal, make_graph
from oracles import brute_force_ot


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    def _report(criterion: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] criterion {criterion} {status}: {detail}", flush=True)
    return _report


def random_cost(rng, n, m):
    return rng.random((n, m))


def teacher_setup(arch: ArchSpec, count: int, model_seed: int, data_seed: int,
                  single_vertex: bool = False):
    lo, hi = (1, 1) if single_vertex else (3, 8)
    density = 0.0 if single_vertex else 0.35
    gen = GeneratorSpec(count=count, min_vertices=lo, max_vertices=hi,
                        edge_density=density, feature_dim=arch.feature_dim)
    model = random_model(arch, seed=model_seed)
    dataset = label_with_model(model, synthesize_dataset(gen, seed=data_seed))
    return model, dataset


def planted_perms(model, rng):
    widths = [model.layers[i].params.out_dim for i in model.parameterized_indices()[:-1]]
    return [rng.permutation(w) for w in widths]


def test_criterion_1_emd_matches_brute_force(report):
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst_marginal = 0.0
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        C = random_cost(rng, n, n)
        a = uniform_weights(n)
        plan = emd(a, a, C)
        oracle = brute_force_ot(a, a, C)
        if plan.objective != oracle.objective:
            mismatches += 1
        worst_marginal = max(worst_marginal, plan.marginal_error(a, a))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst_marginal <= 1e-9 and elapsed < 10.0
    report(1, ok, f"emd == brute force on {200 - mismatches}/200 uniform square "
                  f"instances, worst marginal error {worst_marginal:.2e}, {elapsed:.1f}s")
    assert mismatches == 0
    assert worst_marginal <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_sinkhorn_tracks_emd_within_one_percent(report):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        C = random_cost(rng, n, m) + 0.05
        a, b = uniform_weights(n), uniform_weights(m)
        exact = emd(a, b, C)
        params = SinkhornParams(epsilon=1e-3 * float(C.mean()),
                                rho_alpha=1e3, rho_beta=1e3)
        soft = sinkhorn_unbalanced(a, b, C, params)
        worst_rel = max(worst_rel, abs(soft.objective - exact.objective) / exact.objective)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.01 and elapsed < 30.0
    report(2, ok, f"sinkhorn objective within {worst_rel:.2e} of emd on 50 balanced "
                  f"instances (tolerance 1e-2), {elapsed:.1f}s")
    assert worst_rel <= 0.01
    assert elapsed < 30.0


def test_criterion_3_fgw_identity_and_symmetry(report):
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()

    def random_attributed_graph(size):
        edges = [(i, j) for i in range(size) for j in range(i + 1, size)
                 if rng.random() < 0.5]
        graph = make_graph(size, edges=edges)
        return rng.standard_normal(size), graph.hop_distances

    worst_identity = 0.0
    worst_asymmetry = 0.0
    for _ in range(20):
        na, nb = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        va, Sa = random_attributed_graph(na)
        vb, Sb = random_attributed_graph(nb)
        self_problem = FgwProblem(
            structure_a=Sa, structure_b=Sa,
            feature_cost=(va[:, None] - va[None, :]) ** 2,
            trade_off=0.5, alpha=uniform_weights(na), beta=uniform_weights(na))
        d_self = fgw_distance(self_problem)[0][0]
        worst_identity = max(worst_identity, abs(d_self))
        forward_problem = FgwProblem(
            structure_a=Sa, structure_b=Sb,
            feature_cost=(va[:, None] - vb[None, :]) ** 2,
            trade_off=0.5, alpha=uniform_weights(na), beta=uniform_weights(nb))
        d_ab = fgw_distance(forward_problem)[0][0]
        d_ba = fgw_distance(forward_problem.transposed())[0][0]
        worst_asymmetry = max(worst_asymmetry, abs(d_ab - d_ba))
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-8 and worst_asymmetry <= 1e-8 and elapsed < 30.0
    report(3, ok, f"fgw self-distance <= {worst_identity:.2e}, |d(A,B)-d(B,A)| <= "
                  f"{worst_asymmetry:.2e} on 20 pairs (tolerance 1e-8), {elapsed:.1f}s")
    assert worst_identity <= 1e-8
    assert worst_asymmetry <= 1e-8
    assert elapsed < 30.0


def test_criterion_4_permutation_recovery_end_to_end(report):
    t0 = time.perf_counter()
    worst_rel = 0.0
    plans_exact = True
    config = FusionConfig(sample_size=8, seed=0)
    cases = (
        [("gcn", ArchSpec(feature_dim=4, hidden_dim=16, gc_layers=2,
                          dense_layers=2, batch_norm=True), s) for s in range(10)]
        + [("mlp", ArchSpec(feature_dim=4, hidden_dim=16, gc_layers=0,
                            dense_layers=2, batch_norm=True), s) for s in range(10)]
    )
    for mode, arch, seed in cases:
        rng = np.random.default_rng(1000 + seed)
        model, fit_data = teacher_setup(arch, count=20, model_seed=seed,
                                        data_seed=2000 + seed,
                                        single_vertex=(mode == "mlp"))
        perms = planted_perms(model, rng)
        twin = permute_model(model, perms)
        fused, trace = fuse(model, twin, fit_data, config)
        gen = GeneratorSpec(count=100,
                            min_vertices=1 if mode == "mlp" else 3,
                            max_vertices=1 if mode == "mlp" else 8,
                            edge_density=0.0 if mode == "mlp" else 0.35,
                            feature_dim=4)
        held_out = synthesize_dataset(gen, seed=3000 + seed)
        for g in held_out.graphs:
            ref = predict(model, (g,))[0]
            rel = abs(predict(fused, (g,))[0] - ref) / max(abs(ref), 1e-9)
            worst_rel = max(worst_rel, rel)
        for layer, p in zip(trace.layers, perms):
            n = len(p)
            expected = np.eye(n)[np.asarray(p)].T / n
            if not np.array_equal(layer.plan.coupling, expected):
                plans_exact = False
        if trace.layers[-1].plan.as_permutation() is None:
            plans_exact = False
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and plans_exact and elapsed < 120.0
    report(4, ok, f"10 GCN + 10 MLP twins recovered, worst relative prediction error "
                  f"{worst_rel:.2e} on 100 held-out graphs (tolerance 1e-5), layer "
                  f"plans exactly (1/n)*permutation: {plans_exact}, {elapsed:.1f}s")
    assert worst_rel <= 1e-5
    assert plans_exact
    assert elapsed < 120.0


def test_criterion_5_ot_beats_vanilla_on_twins(report):
    t0 = time.perf_counter()
    arch = ArchSpec(feature_dim=4, hidden_dim=8, gc_layers=1,
                    dense_layers=2, batch_norm=True)
    config = FusionConfig(sample_size=8, seed=0)
    wins = strict = 0
    for s in range(10):
        rng = np.random.default_rng(4000 + s)
        model, dataset = teacher_setup(arch, count=60, model_seed=s, data_seed=5000 + s)
        twin = permute_model(model, planted_perms(model, rng))
        fused, _ = fuse(model, twin, dataset, config)
        ot_mae = evaluate_mae(fused, dataset)
        vanilla_mae = evaluate_mae(vanilla_fuse(model, twin), dataset)
        wins += ot_mae <= vanilla_mae
        strict += ot_mae < vanilla_mae
    elapsed = time.perf_counter() - t0
    ok = wins == 10 and strict >= 9 and elapsed < 120.0
    report(5, ok, f"OT-fused MAE <= vanilla on {wins}/10 twin pairs, strictly lower "
                  f"on {strict}/10 (need 10 and >= 9), {elapsed:.1f}s")
    assert wins == 10
    assert strict >= 9
    assert elapsed < 120.0


def test_criterion_6_larger_activation_sample_helps_under_noise(report):
    t0 = time.perf_counter()
    arch = ArchSpec(feature_dim=4, hidden_dim=8, gc_layers=1,
                    dense_layers=2, batch_norm=True)
    maes = {1: [], 64: []}
    for s in range(5):
        rng = np.random.default_rng(6000 + s)
        model, dataset = teacher_setup(arch, count=80, model_seed=100 + s,
                                       data_seed=7000 + s)
        twin = perturb_model(permute_model(model, planted_perms(model, rng)),
                             scale=0.01, seed=8000 + s)
        for size in (1, 64):
            config = FusionConfig(sample_size=size, seed=s)
            fused, _ = fuse(model, twin, dataset, config)
            maes[size].append(evaluate_mae(fused, dataset))
    mean_small = float(np.mean(maes[1]))
    mean_large = float(np.mean(maes[64]))
    elapsed = time.perf_counter() - t0
    ok = mean_large <= mean_small and elapsed < 120.0
    report(6, ok, f"noisy-twin mean MAE {mean_large:.4f} at sample size 64 vs "
                  f"{mean_small:.4f} at size 1 across 5 seeds, {elapsed:.1f}s")
    assert mean_large <= mean_small
    assert elapsed < 120.0


def test_criterion_7_alignment_algebra_and_self_fusion_exact(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    n = 6
    p = rng.permutation(n)
    P = np.eye(n)[p]
    plan = TransportPlan(coupling=P / n, objective=0.0)

    incoming = DenseParams(weight=rng.standard_normal((3, n)))
    cols_ok = np.array_equal(align_layer_incoming(incoming, plan).weight,
                             incoming.weight @ P)
    outgoing = DenseParams(weight=rng.standard_normal((n, 3)),
                           bias=rng.standard_normal(n))
    aligned_out = align_layer_outgoing(outgoing, plan)
    rows_ok = (np.array_equal(aligned_out.weight, P.T @ outgoing.weight)
               and np.array_equal(aligned_out.bias, P.T @ outgoing.bias))
    bn = BatchNormParams(gamma=rng.standard_normal(n), beta_shift=rng.standard_normal(n),
                         running_mean=rng.standard_normal(n), running_var=rng.random(n) + 0.5,
                         epsilon=1e-5)
    aligned_bn = align_batchnorm(bn, plan)
    inv = (P.T @ np.arange(n)).astype(int)
    bn_ok = all(np.array_equal(getattr(aligned_bn, name), getattr(bn, name)[inv])
                for name in ("gamma", "beta_shift", "running_mean", "running_var"))

    arch = ArchSpec(feature_dim=4, hidden_dim=8, gc_layers=1, dense_layers=2,
                    batch_norm=True)
    model, dataset = teacher_setup(arch, count=20, model_seed=7, data_seed=9000)
    fused, _ = fuse(model, model, dataset, FusionConfig(sample_size=8, seed=0))
    try:
        assert_models_equal(fused, model)
        self_ok = True
    except AssertionError:
        self_ok = False
    elapsed = time.perf_counter() - t0
    ok = cols_ok and rows_ok and bn_ok and self_ok and elapsed < 5.0
    report(7, ok, f"permutation-plan alignment entrywise exact (incoming {cols_ok}, "
                  f"outgoing {rows_ok}, batch-norm {bn_ok}), EMD self-fusion returns "
                  f"the anchor exactly: {self_ok}, {elapsed:.1f}s")
    assert cols_ok and rows_ok and bn_ok and self_ok
    assert elapsed < 5.0


def test_criterion_8_cli_outputs_are_byte_deterministic(tmp_path, report):
    t0 = time.perf_counter()
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        return result

    gen_args = ["--hidden", "6", "--gc-layers", "1", "--count", "30",
                "--max-vertices", "6", "--seed", "11"]
    for d in ("fx1", "fx2"):
        run("gen-fixtures", "--out-dir", tmp_path / d, *gen_args)
    fixture_files = ("model_a.json", "model_b.json", "permutations.json", "dataset.jsonl")
    fixtures_ok = all((tmp_path / "fx1" / f).read_bytes() == (tmp_path / "fx2" / f).read_bytes()
                      for f in fixture_files)

    a = tmp_path / "fx1" / "model_a.json"
    b = tmp_path / "fx1" / "model_b.json"
    data = tmp_path / "fx1" / "dataset.jsonl"
    for i in (1, 2):
        run("fuse", "--a", a, "--b", b, "--data", data, "--samples", 6,
            "--out", tmp_path / f"fused{i}.json", "--trace", tmp_path / f"trace{i}.txt")
    fuse_ok = ((tmp_path / "fused1.json").read_bytes() == (tmp_path / "fused2.json").read_bytes()
               and (tmp_path / "trace1.txt").read_bytes() == (tmp_path / "trace2.txt").read_bytes())

    for i in (1, 2):
        run("grid", "--a", a, "--b", b, "--data", data, "--samples", 4,
            "--fgw-samples", 2, "--repeats", 2, "--out", tmp_path / f"grid{i}.csv")
        run("sweep-samples", "--a", a, "--b", b, "--data", data, "--sizes", "2,6",
            "--repeats", 2, "--out", tmp_path / f"sweep{i}.csv")
    csv_ok = ((tmp_path / "grid1.csv").read_bytes() == (tmp_path / "grid2.csv").read_bytes()
              and (tmp_path / "sweep1.csv").read_bytes() == (tmp_path / "sweep2.csv").read_bytes())

    json.loads((tmp_path / "fused1.json").read_text())  # outputs stay valid JSON
    elapsed = time.perf_counter() - t0
    ok = fixtures_ok and fuse_ok and csv_ok
    report(8, ok, f"identical reruns byte-match (fixtures {fixtures_ok}, fused model + "
                  f"trace {fuse_ok}, grid + sweep CSVs {csv_ok}), {elapsed:.1f}s")
    assert fixtures_ok
    assert fuse_ok
    assert csv_ok
