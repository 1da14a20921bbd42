from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pairtrace import ValidationError, scenario, spdc
from pairtrace.cli import main
from pairtrace.scenario import (
    BUNDLED_SCENARIOS,
    FIG3_LADDER,
    build_system,
    load_scenario,
    parse_scenario_text,
    reproduce_fig3,
    run_scenario,
    scenario_path,
)

GAUSS_TEXT = """
[pump]
wavelength_nm = 532.0

[spectrum]
source = gaussian
gaussian_sigma = 0.05

[grid]
omega_points = 1024
omega_half_span = 0.55
radial_points = 16

[delay]
kernel = v-mask
tau_span_fs = 120
tau_step_fs = 0.35
"""


# ---------------------------------------------------------------- parsing

def test_bundled_scenarios_all_load():
    for name in BUNDLED_SCENARIOS:
        sc = load_scenario(name)
        assert sc.pump_wavelength_nm == 532.0


def test_parse_error_cites_line_number():
    bad = "[pump]\nwavelength_nm 532\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(bad, source="bad.scn")
    assert "bad.scn:2" in str(err.value)


def test_bad_number_cites_line():
    bad = "[pump]\nwavelength_nm = green\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(bad, source="bad.scn")
    assert "bad.scn:2" in str(err.value)


def test_unknown_scenario_name_rejected():
    with pytest.raises(ValidationError):
        scenario_path("fig9z")


def test_bundled_name_resolves_to_the_bundled_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for local in ("fig3a", "fig3a.scn"):
        (tmp_path / local).write_text(GAUSS_TEXT)
    for name in ("fig3a", "fig3a.scn"):
        path = scenario_path(name)
        assert path == resources.files("pairtrace.scenarios").joinpath("fig3a.scn")
        assert load_scenario(name).gaussian_sigma is None
    # the local files are reached by path
    for name in ("./fig3a", "./fig3a.scn", str(tmp_path / "fig3a")):
        assert load_scenario(name).gaussian_sigma == 0.05


def test_local_file_does_not_take_over_reproduce_fig3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig3a").write_text(GAUSS_TEXT)
    summary = reproduce_fig3(tmp_path / "out", grid_scale=0.5)
    assert summary["optimization"] is not None and not summary["flags"]


def test_pupil_inner_edge_toggle():
    base = "[pupil]\ninner_edge = off\n"
    sc = parse_scenario_text(base, source="p.scn")
    assert sc.theta_min_ext_rad == 0.0
    sc_on = parse_scenario_text("[pupil]\ninner_edge = on\n", source="p.scn")
    assert sc_on.theta_min_ext_rad == pytest.approx(0.75 / 75.0)  # gap/2 over focal
    explicit = parse_scenario_text(
        "[pupil]\ninner_edge = on\ntheta_min_ext_rad = 0.004\n", source="p.scn"
    )
    assert explicit.theta_min_ext_rad == 0.004


def test_zero_length_crystal_rejected_before_compute():
    text = "[crystals]\nlength_mm = 0\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text, source="zl.scn")
    assert "length_mm" in str(err.value)


def test_unknown_element_kind_rejected(tmp_path):
    text = GAUSS_TEXT.replace("source = gaussian", "source = spdc") + (
        "\n[elements]\nelement_1 = grating lines_per_mm=1200\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text, source="g.scn")
    assert "grating" in str(err.value)


@pytest.mark.parametrize(
    "text, line, words",
    [
        ("[pump]\nwavelength_nm = 532\n[pumps]\n", 3, "unknown section [pumps]"),
        ("[grid]\nomega_pionts = 64\n", 2, "unknown key 'omega_pionts'"),
        ("[pump]\nwavelength_nm = 532\nwavelength_nm = 540\n", 3, "given twice"),
        ("[pump]\n[pump]\n", 2, "section [pump] given twice"),
        ("[window]\nelement_1 = slab thickness_mm=1 thickness_mm=2\n", 2, "given twice"),
        ("[window]\nelement_x = slab thickness_mm=1\n", 2, "unknown key 'element_x'"),
    ],
    ids=["section", "key", "repeated_key", "repeated_section", "repeated_argument",
         "element_key"],
)
def test_unknown_or_repeated_keys_rejected_citing_line(text, line, words):
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text, source="bad.scn")
    assert str(err.value).startswith(f"bad.scn:{line}: ")
    assert words in str(err.value)


def test_keys_read_only_in_some_settings_are_accepted():
    text = "[pupil]\ninner_edge = off\nmirror_gap_mm = 1.5\ncollimating_focal_mm = 75\n"
    assert parse_scenario_text(text, source="p.scn").theta_min_ext_rad == 0.0


@pytest.mark.parametrize(
    "text", ["[delay]\ntau_step_fs = inf\n", "[grid]\nomega_points = nan\n",
             "[optimize]\nbracket = -inf 200\n"],
    ids=["number", "integer", "pair"],
)
def test_non_finite_numbers_rejected_at_parse(text):
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text, source="bad.scn")
    assert str(err.value).startswith("bad.scn:2: ")
    assert "not a finite number" in str(err.value)


# ---------------------------------------------------------------- running

def test_gaussian_vmask_run_reports_ratio(tmp_path):
    sc = parse_scenario_text(GAUSS_TEXT, source="gauss.scn")
    result = run_scenario(sc, tmp_path / "out")
    ratio = float(result.extras["fwhm_ratio_vmask"])
    assert ratio == pytest.approx(1.7, rel=0.05)
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "trace_signal.csv").exists()
    assert (tmp_path / "out" / "metrics.txt").exists()


def test_run_artifacts_byte_identical(tmp_path):
    sc = parse_scenario_text(GAUSS_TEXT, source="gauss.scn")
    run_scenario(sc, tmp_path / "a")
    run_scenario(sc, tmp_path / "b")
    for name in ("spectrum.csv", "trace.csv", "metrics.txt", "run.log"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_detuned_scenario_strongly_suppressed(tmp_path):
    # the +20 C control run: zero-delay rate collapses by >2 orders of
    # magnitude relative to the matched-conditions trace
    matched = run_scenario("fig3a", tmp_path / "m", grid_scale=0.5)
    detuned = run_scenario("fig2b_detuned", tmp_path / "d", grid_scale=0.5)
    r_matched = float(matched.extras["rate_zero_delay"])
    r_detuned = float(detuned.extras["rate_zero_delay"])
    assert r_detuned < r_matched / 100.0


# ---------------------------------------------------------------- CLI

def test_cli_material_gdd():
    runner = CliRunner()
    result = runner.invoke(
        main, ["material-gdd", "--material", "fused_silica", "--thickness-mm", "6"]
    )
    assert result.exit_code == 0
    line = [l for l in result.output.splitlines() if l.startswith("gdd_fs2=")][0]
    assert float(line.split("=")[1]) == pytest.approx(99.0, rel=0.02)


def test_cli_material_gdd_unknown_material_exit_2():
    runner = CliRunner()
    result = runner.invoke(
        main, ["material-gdd", "--material", "diamondoid", "--thickness-mm", "1"]
    )
    assert result.exit_code == 2
    assert "error:" in result.output or "error:" in (result.stderr or "")


def test_cli_material_gdd_range_error_exit_2():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["material-gdd", "--material", "sf10", "--thickness-mm", "1",
         "--wavelength-nm", "200"],
    )
    assert result.exit_code == 2


def test_cli_qpm_solve_fixture():
    runner = CliRunner()
    result = runner.invoke(main, ["qpm-solve"])
    assert result.exit_code == 0
    values = dict(l.split("=") for l in result.output.strip().splitlines())
    assert float(values["poling_period_um"]) == pytest.approx(6.93274352, abs=1e-6)
    assert float(values["recovered_temperature_C"]) == pytest.approx(50.0, abs=0.01)


def test_cli_qpm_solver_failure_exit_4():
    runner = CliRunner()
    result = runner.invoke(main, ["qpm-solve", "--bracket-um", "20", "40"])
    assert result.exit_code == 4


def test_cli_trace_gaussian(tmp_path):
    runner = CliRunner()
    scn = tmp_path / "gauss.scn"
    scn.write_text(GAUSS_TEXT)
    out = tmp_path / "out"
    result = runner.invoke(main, ["trace", "--scenario", str(scn), "--out", str(out)])
    assert result.exit_code == 0
    assert "fwhm_ratio_vmask=" in result.output
    assert (out / "trace.csv").exists()


def test_cli_trace_vmask_without_fwhm_writes_undefined(tmp_path):
    # sigma 0.003 rad/fs: both traces stay above half maximum over the span
    scn = tmp_path / "narrow.scn"
    scn.write_text(GAUSS_TEXT.replace("gaussian_sigma = 0.05", "gaussian_sigma = 0.003"))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["trace", "--scenario", str(scn), "--out", str(out)])
    assert result.exit_code == 0
    assert result.exception is None
    assert "Traceback" not in result.output
    metrics = (out / "metrics.txt").read_text().splitlines()
    assert "fwhm_fs=undefined" in metrics
    assert "signal_delay_fwhm_fs=undefined" in metrics
    assert "fwhm_ratio_vmask=undefined" in metrics


def test_cli_trace_missing_scenario_exit_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["trace", "--scenario", "nope.scn", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2


def test_reproduce_fig3_summary(tmp_path):
    summary = reproduce_fig3(tmp_path / "fig3", refine_check=True)
    assert summary["flags"] == []
    rows = summary["rows"]
    assert [r["case"] for r in rows[:5]] == [
        "fig3a_optimum",
        "fig3b_fs6mm",
        "fig3b_fs12mm",
        "fig3c_sf10_5mm",
        "fig3d_sf10_37mm",
    ]
    widths = [r["fwhm_fs"] for r in rows[:5] if r["fwhm_fs"] is not None]
    assert all(a <= b for a, b in zip(widths, widths[1:]))
    assert rows[5]["case"] == "gauss_vmask_ratio"
    assert rows[5]["peak_to_mean_80fs"] == pytest.approx(1.7, rel=0.05)
    assert (tmp_path / "fig3" / "summary.csv").exists()
    assert (tmp_path / "fig3" / "convergence.txt").exists()
    assert (tmp_path / "fig3" / "fig3a_optimum.csv").exists()


def test_cli_optimize_command(tmp_path):
    runner = CliRunner()
    out = tmp_path / "opt"
    result = runner.invoke(
        main,
        ["optimize", "--scenario", "fig3a", "--out", str(out), "--grid-scale", "0.5"],
    )
    assert result.exit_code == 0
    values = dict(
        l.split("=") for l in result.output.strip().splitlines() if "=" in l
    )
    assert 10.0 <= float(values["residual_gdd_fs2"]) <= 50.0
    assert values["edge_solution"] == "false"
    # the same stages and writer as a full run: the same bytes
    run_scenario("fig3a", tmp_path / "run", grid_scale=0.5)
    for name in ("optimization.txt", "scan.csv"):
        assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    assert result.output == (out / "optimization.txt").read_text()


def test_cli_spectrum_grid_scale(tmp_path):
    runner = CliRunner()
    out = tmp_path / "spec"
    result = runner.invoke(
        main,
        ["trace", "--scenario", "fig2b_detuned", "--out", str(out),
         "--grid-scale", "0.25"],
    )
    assert result.exit_code == 0
    assert "bandwidth_fwhm_nm=" in result.output
    with open(out / "spectrum.csv") as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "omega_rad_per_fs,wavelength_nm,re_S,im_S,abs2_S"
    assert len(rows) == 1 + 512  # 2048 * 0.25


def test_cli_version_needs_no_installed_metadata():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def fig3a_with(old, new):
    text = resources.files("pairtrace.scenarios").joinpath("fig3a.scn").read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize(
    "old, new, line, words",
    [
        ("insertion_mm=auto", "insertion_mm=abc", 28, "insertion_mm: not a number: 'abc'"),
        ("insertion_mm=auto", "insertion_mm=inf", 28, "insertion_mm: not a finite number"),
        ("insertion_mm=auto", "insertion_mm=auto temperatur_C=30", 28,
         "temperatur_C: unknown argument"),
        ("tau_span_fs = 150", "tau_span_fs = nan", 36, "tau_span_fs: not a finite number"),
        ("omega_points = 2048", "omega_pionts = 64", 23, "unknown key 'omega_pionts'"),
        ("material = mgln_e", "material = unobtainium", 8,
         "material: unknown material 'unobtainium'"),
        # range checks of the element, grid and pupil constructors and the bracket
        ("apex_separation_mm=352", "apex_separation_mm=-352", 28,
         "compressor apex separation must be >= 0"),
        ("[delay]", "[window]\nelement_1 = slab material=fused_silica thickness_mm=-1\n\n[delay]",
         35, "slab thickness must be >= 0"),
        ("omega_points = 2048", "omega_points = 8", 23, "omega_points: grid too small"),
        ("radial_points = 256", "radial_points = 2", 25,
         "radial_points: grid too small: radial_points must be >= 4"),
        ("theta_max_ext_deg = 2.0", "theta_max_ext_deg = 10", 17,
         "theta_max_ext_deg: pupil angles must satisfy"),
        ("bracket = -200 200", "bracket = 5 -5", 32, "bracket: empty optimization bracket"),
    ],
    ids=["insertion_abc", "insertion_inf", "unknown_element_argument", "tau_span_nan",
         "misspelled_key", "unknown_crystal_material", "apex_negative",
         "window_slab_negative", "grid_too_small", "radial_points_too_small", "pupil_too_wide",
         "bracket_reversed"],
)
def test_cli_bad_scenario_value_exits_2_citing_line(tmp_path, old, new, line, words):
    scn = tmp_path / "bad.scn"
    scn.write_text(fig3a_with(old, new))
    result = CliRunner().invoke(
        main, ["trace", "--scenario", str(scn), "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {scn}:{line}: ")
    assert words in lines[0]


def test_cli_failing_trace_stage_leaves_no_out(tmp_path):
    # the signal-delay reference trace of the v-mask run fails: at this
    # scale the span exceeds the transform window
    out = tmp_path / "X"
    result = CliRunner().invoke(
        main, ["trace", "--scenario", "gauss_vmask", "--grid-scale", "0.01", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "transform window" in result.output
    assert not out.exists()


def test_cli_optimize_without_optimize_section_exits_2(tmp_path):
    result = CliRunner().invoke(
        main, ["optimize", "--scenario", "fig2b_detuned", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "no [optimize] section" in result.output


def test_ladder_rows_equal_their_scenario_runs(tmp_path):
    reproduce_fig3(tmp_path / "fig3", grid_scale=0.5)
    for case, name in FIG3_LADDER:
        run_scenario(name, tmp_path / name, grid_scale=0.5)
        ladder_csv = (tmp_path / "fig3" / f"{case}.csv").read_bytes()
        assert ladder_csv == (tmp_path / name / "trace.csv").read_bytes()


def test_ladder_scenario_with_another_kernel_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(
        scenario, "FIG3_LADDER", (("fig3a_optimum", "fig3a"), ("detuned", "fig2b_detuned"))
    )
    with pytest.raises(ValidationError) as err:
        reproduce_fig3(tmp_path / "fig3", grid_scale=0.5)
    assert "must share the kernel and optimum" in str(err.value)


def test_ladder_scenario_with_another_source_rejected(tmp_path, monkeypatch):
    # built systems ignore the source, so only the scenarios tell this rung apart
    rung = tmp_path / "gauss_rung.scn"
    rung.write_text(fig3a_with("[delay]", "[spectrum]\nsource = gaussian\n\n[delay]"))
    monkeypatch.setattr(
        scenario, "FIG3_LADDER", (("fig3a_optimum", "fig3a"), ("gaussian", str(rung)))
    )
    with pytest.raises(ValidationError) as err:
        reproduce_fig3(tmp_path / "fig3", grid_scale=0.5)
    assert "must share the kernel and optimum" in str(err.value)


def test_ladder_builds_only_the_optimum_and_the_gaussian_run(tmp_path, monkeypatch):
    built = []

    def counted(sc, grid_scale=1.0):
        built.append(Path(sc.name).name)
        return build_system(sc, grid_scale)

    monkeypatch.setattr(scenario, "build_system", counted)
    reproduce_fig3(tmp_path / "fig3", grid_scale=0.5)
    assert built == ["fig3a.scn", "gauss_vmask.scn"]


def test_reproduce_fig3_evaluates_each_radial_order_once(tmp_path, monkeypatch):
    calls = []
    bare = spdc._bare_amplitude

    def counted(config, radial_points):
        calls.append((config.grid.omega_points, radial_points))
        return bare(config, radial_points)

    monkeypatch.setattr(spdc, "_bare_amplitude", counted)
    reproduce_fig3(tmp_path / "fig3", grid_scale=0.5, refine_check=True)
    n = load_scenario("fig3a").grid.scaled(0.5).omega_points
    orders = [pts for omega, pts in calls if omega == n]
    assert len(orders) == len(set(orders)) >= 2
    # the refinement adds only its (2n - 1)-point grid, at the kernel's order
    assert calls == [(n, pts) for pts in orders] + [(2 * n - 1, orders[-1])]


def test_cli_reproduce_fig3_failing_build_leaves_no_out(tmp_path):
    out = tmp_path / "X"
    result = CliRunner().invoke(
        main, ["reproduce-fig3", "--grid-scale", "0", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "grid scale" in result.output
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig3c_513", "fig3d_3790"])
def test_symmetric_trace_peak_reads_the_same_at_both_grid_scales(tmp_path, name):
    # the two lobes of these traces are equal to round-off; the peak rule
    # must not let round-off pick the side
    taus = [
        run_scenario(name, tmp_path / str(scale), grid_scale=scale).trace_metrics.peak_tau_fs
        for scale in (1.0, 0.5)
    ]
    assert taus[0] < -60.0 and taus[1] < -60.0
    assert taus[0] == pytest.approx(taus[1], abs=0.35)


# ---------------------------------------------------------------- one run path

def test_cli_gaussian_follows_grid_scale(tmp_path):
    out = tmp_path / "g"
    result = CliRunner().invoke(
        main, ["trace", "--scenario", "gauss_vmask", "--out", str(out), "--grid-scale", "0.5"]
    )
    assert result.exit_code == 0
    assert "bandwidth_fwhm_nm=" in result.output
    with open(out / "spectrum.csv") as fh:
        assert len(fh.read().strip().splitlines()) == 1 + 1024  # 2048 * 0.5


@pytest.mark.parametrize("gdd", [0.0, 50.0, 100.0, 200.0, 400.0])
def test_chirped_gaussian_oracle_through_scenario(tmp_path, gdd):
    # exp(-d^2/4 sigma^2) with gdd (w-w0)^2/2 on both photons has phase gdd d^2;
    # its signal-delay trace is the chirped-Gaussian pulse of Diels & Rudolph ch. 1
    sigma = 0.05
    text = (
        f"[spectrum]\nsource = gaussian\ngaussian_sigma = {sigma}\n"
        f"[elements]\nelement_1 = phase_correction gdd_fs2={gdd}\n"
    )
    sc = parse_scenario_text(text, source="chirp.scn")
    assert sc.half_crystal_phases is False
    result = run_scenario(sc, tmp_path / "out")
    expected = (
        2.0 * np.sqrt(2.0 * np.log(2.0)) / (2.0 * sigma)
        * np.sqrt(1.0 + 16.0 * sigma ** 4 * gdd ** 2)
    )
    assert result.trace_metrics.fwhm_fs == pytest.approx(expected, rel=1e-4)


def test_gaussian_source_takes_explicit_half_crystal_phases():
    text = GAUSS_TEXT + "\n[crystals]\nhalf_crystal_phases = on\n"
    chain = build_system(parse_scenario_text(text, source="g.scn")).base_chain
    assert [e.thickness_mm for e in chain.elements] == [2.5, 2.5]


def test_pump_outside_the_crystal_range_fails_only_the_spdc_source(tmp_path):
    # mgln_e is valid from 500 nm; a Gaussian source reads no crystal index
    outputs = {}
    for name in ("gauss_vmask", "fig3a"):
        text = resources.files("pairtrace.scenarios").joinpath(f"{name}.scn").read_text()
        assert "wavelength_nm = 532.0" in text
        scn = tmp_path / f"{name}_400.scn"
        scn.write_text(text.replace("wavelength_nm = 532.0", "wavelength_nm = 400"))
        outputs[name] = CliRunner().invoke(
            main, ["trace", "--scenario", str(scn), "--out", str(tmp_path / name)]
        )
    assert outputs["gauss_vmask"].exit_code == 0
    assert "fwhm_ratio_vmask=" in outputs["gauss_vmask"].output
    assert outputs["fig3a"].exit_code == 2
    assert outputs["fig3a"].output.splitlines() == [
        f"error: {tmp_path / 'fig3a_400.scn'}:5: [pump] wavelength_nm: wavelength 400-400 nm "
        "outside validity range [500, 4000] nm of material 'mgln_e'"
    ]


def test_spdc_vmask_scenario_writes_signal_reference(tmp_path):
    sc = parse_scenario_text(
        fig3a_with("kernel = signal-delay", "kernel = v-mask"), source="fig3a_v.scn"
    )
    result = run_scenario(sc, tmp_path / "out", grid_scale=0.25)
    assert (tmp_path / "out" / "trace_signal.csv").exists()
    metrics = (tmp_path / "out" / "metrics.txt").read_text()
    assert f"fwhm_ratio_vmask={result.extras['fwhm_ratio_vmask']}" in metrics
    assert float(result.extras["fwhm_ratio_vmask"]) > 1.0


@pytest.mark.parametrize(
    "args, words",
    [
        (["trace", "--scenario", "fig3a", "--grid-scale", "nan"], "'--grid-scale'"),
        (["trace", "--scenario", "gauss_vmask", "--grid-scale", "0"], "grid scale"),
        (["trace", "--scenario", "gauss_vmask", "--grid-scale", "-1"], "grid scale"),
        (["trace", "--scenario", "gauss_vmask", "--grid-scale", "nan"], "'--grid-scale'"),
        (["trace", "--scenario", "gauss_vmask", "--grid-scale", "inf"], "'--grid-scale'"),
        (["material-gdd", "--material", "sf10", "--thickness-mm", "nan"], "'--thickness-mm'"),
        (["qpm-solve", "--temperature-c", "inf"], "'--temperature-c'"),
        (["qpm-solve", "--pump-nm", "0"], "--pump-nm must be > 0"),
        (["qpm-solve", "--pump-nm", "-532"], "--pump-nm must be > 0"),
        (["material-gdd", "--material", "fused_silica", "--thickness-mm", "-1"],
         "slab thickness must be >= 0"),
    ],
    ids=["fig3a_nan", "gauss_zero", "gauss_negative", "gauss_nan", "gauss_inf",
         "material_gdd_nan", "qpm_solve_inf", "qpm_solve_pump_zero",
         "qpm_solve_pump_negative", "material_gdd_negative_thickness"],
)
def test_cli_bad_option_value_exits_2_before_any_work(tmp_path, args, words):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2
    errors = [l for l in result.output.splitlines() if l.lower().startswith("error:")]
    assert len(errors) == 1 and words in errors[0]
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
def test_run_scenario_rejects_bad_grid_scale(tmp_path, factor):
    with pytest.raises(ValidationError, match="grid scale"):
        run_scenario("gauss_vmask", tmp_path / "out", grid_scale=factor)


@pytest.mark.parametrize(
    "text, words",
    [
        ("[spectrum]\ngaussian_sigma = 0\n", "gaussian_sigma: must be > 0"),
        ("[spectrum]\ngaussian_sigma = -0.05\n", "gaussian_sigma: must be > 0"),
        ("[delay]\ntau_span_fs = 0\n", "tau_span_fs: must be > 0"),
        ("[delay]\ntau_step_fs = -0.35\n", "tau_step_fs: must be > 0"),
    ],
    ids=["sigma_zero", "sigma_negative", "tau_span_zero", "tau_step_negative"],
)
def test_non_positive_values_rejected_at_parse_citing_line(text, words):
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text, source="bad.scn")
    assert str(err.value).startswith("bad.scn:2: ")
    assert words in str(err.value)


def bundled_with(name, key, value):
    """A bundled scenario's text with one key's value replaced, and its line."""
    lines = scenario_path(name).read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.split("=")[0].strip() == key)
    lines[index] = f"{key} = {value}"
    return "\n".join(lines) + "\n", index + 1


@pytest.mark.parametrize(
    "name, key, value, words",
    [
        ("fig3a", "wavelength_nm", "0", "must be > 0"),
        ("gauss_vmask", "wavelength_nm", "0", "must be > 0"),
        ("fig3a", "wavelength_nm", "-532", "must be > 0"),
        ("fig3a", "collimating_focal_mm", "0", "must be > 0"),
        ("fig3a", "tau_span_fs", "1e-300", "tau_span_fs must be >= tau_step_fs"),
        ("gauss_vmask", "gaussian_sigma", "1e300", "omega grid too narrow"),
        ("gauss_vmask", "tau_span_fs", "1e300", "tau_span_fs too large"),
        ("fig3a", "tau_step_fs", "1e-6", "tau_step_fs too small"),
        ("gauss_vmask", "tau_step_fs", "1e-6", "tau_step_fs too small"),
        ("fig3a", "phasematch_temperature_C", "1e300", "index of 'mgln_e' is not finite"),
        ("fig3a", "phasematch_temperature_C", "1e130", "index of 'mgln_e' is not finite"),
        ("fig3a", "operating_offset_C", "1e300", "index of 'mgln_e' is not finite"),
        ("fig3a", "uc_temperature_offset_C", "1e300", "index of 'mgln_e' is not finite"),
        ("gauss_vmask", "gaussian_sigma", "1e-300", "below the grid's frequency step"),
        ("gauss_vmask", "omega_half_span", "1e300", "must be < w_p/2"),
        ("fig3a", "omega_half_span", "1.8", "must be < w_p/2"),
        ("fig3a", "wavelength_nm", "1e300", "outside validity range"),
    ],
    ids=["fig3a_pump_zero", "gauss_pump_zero", "fig3a_pump_negative", "focal_zero",
         "tau_span_tiny", "sigma_huge", "tau_span_huge", "fig3a_tau_step_tiny",
         "gauss_tau_step_tiny", "phasematch_temperature_huge",
         "phasematch_temperature_overflow", "operating_offset_huge", "uc_offset_huge",
         "sigma_below_step", "gauss_span_huge", "span_above_half_pump", "fig3a_pump_huge"],
)
def test_cli_scenario_value_out_of_range_exits_2_citing_line(
    tmp_path, name, key, value, words
):
    scn = tmp_path / f"{name}.scn"
    text, line = bundled_with(name, key, value)
    scn.write_text(text)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["trace", "--scenario", str(scn), "--out", str(out), "--grid-scale", "0.25"]
    )
    assert result.exit_code == 2
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {scn}:{line}: ")
    assert f"{key}: " in lines[0] and words in lines[0]
    assert len(lines[0]) - len(str(scn)) < 200
    assert not out.exists()


def test_cli_grid_over_work_cap_exits_2_before_any_work(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["trace", "--scenario", "fig3a", "--grid-scale", "1e9", "--out", str(out)]
    )
    assert result.exit_code == 2
    errors = [l for l in result.output.splitlines() if l.lower().startswith("error:")]
    assert len(errors) == 1 and "work cap" in errors[0]
    assert "Traceback" not in result.output
    assert not out.exists()
