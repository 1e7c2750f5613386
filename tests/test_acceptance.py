"""Acceptance gate: one check per headline claim of the toolkit.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on passing runs). Shared scans are computed once per module.

Criterion 1 checks the real/virtual field-of-view scan against the spot
model documented in README.md and in ``resolution.spot_extents``: one
Gaussian per lenslet, centred on the image point, its width scaled by the
lenslet's obliquity 1/cos t_p, and the spot size the normalized radial
second moment of their sum. Integrating each Gaussian gives the moment in
closed form, so the expected curve is computed here without a grid. Two
properties of that model shape the check:

* the minimum sits at -1 degree, not 0: for even m the documented
  convention puts lenslet m/2 on axis, which shifts the array by half a
  pitch;
* the closed form evaluates the beam width at the source depth and leaves
  out its Rayleigh-range variation across the tilted spot, which the scan
  keeps. That term is 9.5e-5 of the extent over +/-40 degrees, hence the
  2e-4 tolerance there, and grows to 7.2e-4 over +/-60 degrees, hence the
  looser 1e-3 bound on the wide scan.

Under this model the spot grows by obliquity alone, so the 1.5x field of
view is open-ended within +/-40 degrees and closes only near +/-55 degrees.
"""

import math
import time

import numpy as np
import pytest

from tiltview.optics import (
    BeamParameters,
    OpticalSystemConfig,
    PlaneGrid,
    ScalarField2D,
    TiltedPlaneSpec,
)
from tiltview import reconstruction
from tiltview.reconstruction import PSFKernel, bilinear_corners, psf_builder, reconstruct
from tiltview.resolution import extract_fov, radial_extent, scan_resolution
from tiltview.scene import Scene, TexturedPlane, capture, point_source_scene

REAL_VIRTUAL = OpticalSystemConfig(
    m=16, n=16, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=50.0, focal_length_mm=35.0
)
FOCUSED = OpticalSystemConfig(
    m=16, n=16, pitch_x_mm=10.0, pitch_y_mm=10.0, gap_mm=35.0, focal_length_mm=35.0
)
Z_I_OVERRIDE = 360.0


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def real_virtual_scan():
    t0 = time.monotonic()
    curve = scan_resolution(REAL_VIRTUAL, 360.0, "x", -40.0, 40.0, 81,
                            z_i_override_mm=Z_I_OVERRIDE)
    return curve, time.monotonic() - t0


@pytest.fixture(scope="module")
def focused_scans():
    t0 = time.monotonic()
    curves = {D: scan_resolution(FOCUSED, D, "x", -50.0, 50.0, 21) for D in (2000.0, 6000.0)}
    return curves, time.monotonic() - t0


def _closed_form_extents(cfg, D_mm, z_i_mm, thetas_deg):
    """Radial spot extent of an x-axis tilt scan, integrated analytically.

    Lenslet (p, q) at (c_x, c_y) sees the tilt t_px = theta - atan(c_x / D)
    and t_py = -atan(c_y / D). Its Gaussian of half-widths (w_x, w_y),
    squeezed by cos t_p along each axis, has x-variance w_x^2 / (4 cos^2 t_px),
    y-variance w_y^2 / (4 cos^2 t_py) and mass weight / (cos t_px cos t_py),
    the weight being the inverse-square pixel distance normalized to 1 on
    axis. The extent is sqrt(sum(mass * (var_x + var_y)) / sum(mass)). The
    beam widths are taken at the source depth for every point of the plane.
    """
    lam = cfg.wavelength_nm * 1e-6

    def width(pitch):
        w0 = 2.44 * lam * z_i_mm / pitch
        b = math.pi * w0**2 / (2.0 * lam)
        return w0 * math.sqrt(1.0 + 4.0 * ((D_mm - z_i_mm) / b) ** 2)

    wx, wy = width(cfg.pitch_x_mm), width(cfg.pitch_y_mm)
    g = cfg.gap_mm
    cx = (np.arange(cfg.m) - cfg.m / 2) * cfg.pitch_x_mm
    cy = (np.arange(cfg.n) - cfg.n / 2) * cfg.pitch_y_mm
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    d2 = (D_mm + g) ** 2 + ((D_mm + g) / D_mm) ** 2 * (CX**2 + CY**2)
    weight = (D_mm + g) ** 2 / d2
    cos_y = np.cos(np.arctan(CY / D_mm))
    out = []
    for theta in thetas_deg:
        cos_x = np.cos(math.radians(theta) - np.arctan(CX / D_mm))
        mass = weight / (cos_x * cos_y)
        var = wx**2 / (4.0 * cos_x**2) + wy**2 / (4.0 * cos_y**2)
        out.append(math.sqrt((mass * var).sum() / mass.sum()))
    return np.array(out)


def _threshold_crossings(angles, extents, ratio):
    """First outward crossings of ratio x the minimum on each side, by the
    linear interpolation ``extract_fov`` documents; None where none occurs."""
    i_min = int(np.argmin(extents))
    threshold = ratio * extents[i_min]

    def first(order):
        prev = i_min
        for j in order:
            if extents[j] >= threshold:
                t = (threshold - extents[prev]) / (extents[j] - extents[prev])
                return float(angles[prev] + t * (angles[j] - angles[prev]))
            prev = j
        return None

    return first(range(i_min - 1, -1, -1)), first(range(i_min + 1, len(extents)))


def _fmt_crossings(pair):
    return "/".join("open" if a is None else f"{a:+.2f}" for a in pair)


def test_criterion_1_real_virtual_fov(real_virtual_scan):
    curve, elapsed = real_virtual_scan
    ext = curve.extents()
    angles = curve.swept_angles()
    step = angles[1] - angles[0]
    min_angle = angles[int(np.argmin(ext))]
    min_at_center = abs(min_angle) <= step + 1e-9

    model = _closed_form_extents(REAL_VIRTUAL, 360.0, Z_I_OVERRIDE, angles)
    dev = float(np.max(np.abs(ext / model - 1.0)))
    fov = extract_fov(curve, threshold_ratio=1.5)
    fov_sides = (fov.fov_negative_deg, fov.fov_positive_deg)
    model_sides = _threshold_crossings(angles, model, 1.5)
    open_ended = fov_sides == model_sides == (None, None)
    narrow_ok = dev < 2e-4 and open_ended

    t0 = time.monotonic()
    wide = scan_resolution(REAL_VIRTUAL, 360.0, "x", -60.0, 60.0, 61,
                           z_i_override_mm=Z_I_OVERRIDE)
    elapsed += time.monotonic() - t0
    wide_angles = wide.swept_angles()
    wide_ext = wide.extents()
    wide_model = _closed_form_extents(REAL_VIRTUAL, 360.0, Z_I_OVERRIDE, wide_angles)
    wide_dev = float(np.max(np.abs(wide_ext / wide_model - 1.0)))
    wide_fov = extract_fov(wide, threshold_ratio=1.5)
    scan_cross = (wide_fov.fov_negative_deg, wide_fov.fov_positive_deg)
    model_cross = _threshold_crossings(wide_angles, wide_model, 1.5)
    wide_ok = (wide_dev < 1e-3 and None not in scan_cross and None not in model_cross
               and all(abs(a - b) <= 0.5 for a, b in zip(scan_cross, model_cross)))

    ok = min_at_center and narrow_ok and wide_ok and elapsed < 60.0
    report(
        1, ok,
        f"real/virtual scan: min at {min_angle:.1f} deg; closed-form deviation "
        f"{dev:.1e} over +/-40 (< 2e-4), fov {_fmt_crossings(fov_sides)} (open); "
        f"{wide_dev:.1e} over +/-60 (< 1e-3), 1.5x crossings scan "
        f"{_fmt_crossings(scan_cross)} vs closed form {_fmt_crossings(model_cross)} deg "
        f"(within 0.5); {elapsed:.1f}s",
    )


def test_criterion_2_focused_flatness(focused_scans):
    curves, elapsed = focused_scans
    ratios = {D: c.extents().max() / c.extents().min() for D, c in curves.items()}
    mids = {D: c.extents()[len(c.samples) // 2] for D, c in curves.items()}
    flat = all(r < 1.5 for r in ratios.values())
    pitch = FOCUSED.pitch_x_mm
    sized = all(pitch / 3.0 <= e <= pitch * 3.0 for e in mids.values())
    ok = flat and sized and elapsed < 60.0
    report(
        2, ok,
        f"focused ratios {ratios[2000.0]:.4f} / {ratios[6000.0]:.4f} (< 1.5), "
        f"extents {mids[2000.0]:.3f} / {mids[6000.0]:.3f} mm "
        f"(within 3x of {pitch:.0f} mm pitch), {elapsed:.1f}s",
    )


def test_criterion_3_mode_contrast(real_virtual_scan, focused_scans):
    rv_curve, _ = real_virtual_scan
    f_curves, _ = focused_scans
    rv_ext = rv_curve.extents()[len(rv_curve.samples) // 2]
    f_ext = f_curves[2000.0].extents()[len(f_curves[2000.0].samples) // 2]
    ratio = f_ext / rv_ext
    ok = ratio >= 3.0
    report(3, ok, f"focused/real-virtual extent ratio {ratio:.1f} (>= 3)")


def test_criterion_4_moment_oracles():
    xs = np.linspace(-0.4, 0.4, 512)
    pitch = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    w0 = 0.05
    gauss = radial_extent(ScalarField2D(np.exp(-2 * (X**2 + Y**2) / w0**2), xs, xs, pitch))
    R = 0.2
    disk = radial_extent(ScalarField2D((X**2 + Y**2 <= R**2).astype(float), xs, xs, pitch))
    g_err = abs(gauss - w0 / math.sqrt(2)) / (w0 / math.sqrt(2))
    d_err = abs(disk - R / math.sqrt(2)) / (R / math.sqrt(2))
    ok = g_err < 0.01 and d_err < 0.01
    report(4, ok, f"Gaussian moment error {g_err:.2%}, disk moment error {d_err:.2%} (< 1%)")


def test_criterion_5_airy_zero():
    psf = psf_builder(REAL_VIRTUAL, 360.0, 0.001, math.inf)(360.0)
    n = psf.taps
    profile = psf.samples[n // 2, n // 2:]
    k = 1
    while profile[k] <= profile[k - 1]:
        k += 1
    k -= 1
    y0, y1, y2 = profile[k - 1], profile[k], profile[k + 1]
    r_zero = (k + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)) * psf.sample_pitch_mm
    expected = 1.22 * REAL_VIRTUAL.wavelength_mm * 360.0 / REAL_VIRTUAL.pitch_x_mm
    err = abs(r_zero - expected) / expected
    ok = err < 0.05
    report(5, ok, f"Airy first zero {r_zero * 1e3:.2f} um vs {expected * 1e3:.2f} um "
                  f"({err:.2%} error, < 5%)")


def _smooth_texture(n=64, sigma=0.05, seed=42):
    rng = np.random.default_rng(seed)
    freq = np.fft.fftfreq(n)
    FX, FY = np.meshgrid(freq, freq, indexing="ij")
    spec = np.exp(-(FX**2 + FY**2) / (2 * sigma**2)) * np.exp(2j * np.pi * rng.random((n, n)))
    tex = np.fft.ifft2(spec).real
    return (tex - tex.min()) / (tex.max() - tex.min()) + 0.1


def _ncc(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


def test_criterion_6_geometric_round_trip():
    z0 = 300.0
    texture = TexturedPlane(z_mm=z0, half_width_x_mm=15.0, half_width_y_mm=15.0,
                            texture=_smooth_texture())
    eis = capture(Scene(planes=[texture]), REAL_VIRTUAL, 128, 128,
                  pixel_pitch_mm=10.0 / 128.0)
    grid = PlaneGrid(12.0, 12.0, 0.25)
    rec = reconstruct(eis, TiltedPlaneSpec(0.0, 0.0, z0, grid), mode="geometric")
    X, Y = rec.field.meshgrid()
    truth = texture.sample(X, Y)
    ncc_focus = _ncc(rec.field.values, truth)
    rec_off = reconstruct(eis, TiltedPlaneSpec(0.0, 0.0, 1.3 * z0, grid), mode="geometric")
    ncc_off = _ncc(rec_off.field.values, truth)
    ok = ncc_focus >= 0.95 and ncc_off < ncc_focus
    report(6, ok, f"round-trip NCC {ncc_focus:.4f} (>= 0.95) at z0, "
                  f"{ncc_off:.4f} at 1.3 z0 (strictly lower)")


def test_criterion_7_cross_module_point_oracle():
    cfg = OpticalSystemConfig(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    D = 360.0
    eis = capture(point_source_scene(D), cfg, 2000, 2000, pixel_pitch_mm=0.005)
    grid = PlaneGrid(0.3, 0.3, 0.006)
    rec = reconstruct(eis, TiltedPlaneSpec(0.0, 0.0, D, grid), mode="diffraction",
                      z_i_override_mm=Z_I_OVERRIDE)
    measured = radial_extent(rec.field)
    curve = scan_resolution(cfg, D, "x", -1.0, 1.0, 3, z_i_override_mm=Z_I_OVERRIDE)
    predicted = curve.extents()[1]
    ratio = measured / predicted
    ok = 0.5 <= ratio <= 1.5
    report(7, ok, f"reconstructed spot extent {measured * 1e3:.1f} um vs analyzer "
                  f"{predicted * 1e3:.1f} um (ratio {ratio:.2f}, within 50%)")


def test_criterion_8_reductions_and_determinism(monkeypatch):
    cfg = OpticalSystemConfig(m=4, n=4, pitch_x_mm=10.0, pitch_y_mm=10.0,
                              gap_mm=50.0, focal_length_mm=35.0)
    eis = capture(point_source_scene(200.0), cfg, 64, 64, pixel_pitch_mm=0.15)
    grid = PlaneGrid(3.0, 3.0, 0.05)
    plane = TiltedPlaneSpec(0.0, 0.0, 200.0, grid)

    # the normal-view per-lenslet sum (one magnification D/g) in
    # lexicographic (p, q) order, written out here, each lenslet's bilinear
    # sample with the corners outside its image masked to 0.0
    X, Y = np.meshgrid(grid.xs(), grid.ys(), indexing="ij")
    M = 200.0 / cfg.gap_mm
    loop = np.zeros_like(X)
    centers_x, centers_y = cfg.lenslet_centers()
    for p in range(cfg.m):
        for q in range(cfg.n):
            cx, cy = centers_x[p], centers_y[q]
            du, dv = cx - (X - cx) / M - cx, cy - (Y - cy) / M - cy
            vals = np.zeros_like(X)
            for row, col, w, inside in bilinear_corners(du, dv, eis.pixel_pitch_mm,
                                                        eis.pixels_y, eis.pixels_x):
                vals += np.where(inside, w * eis.images[p, q, row, col], 0.0)
            loop += vals / ((200.0 + cfg.gap_mm) ** 2
                            + ((X - cx) ** 2 + (Y - cy) ** 2) * (1.0 + 1.0 / M) ** 2)

    tilted = reconstruct(eis, plane, mode="geometric")
    tilt_ok = np.allclose(tilted.field.values, loop, rtol=1e-12, atol=0.0)

    # diffraction mode with a 1x1 unit kernel in place of the defocus PSF: the
    # FFT convolution still runs, and its round-off is absolute, so the bound
    # is relative to the field maximum
    def unit_psf_builder(cfg, z_i_mm, sample_pitch_mm, max_half_width_mm):
        def unit_psf(z_local_mm):
            return PSFKernel(samples=np.ones((1, 1)), sample_pitch_mm=sample_pitch_mm,
                             defocus_distance_mm=z_local_mm, subpixels=1, pupil_samples=1,
                             window_energy=1.0)
        return unit_psf

    monkeypatch.setattr(reconstruction, "psf_builder", unit_psf_builder)
    imp = reconstruct(eis, plane, mode="diffraction")
    peak = tilted.field.values.max()
    impulse_ok = bool(np.abs(imp.field.values - tilted.field.values).max() <= 1e-12 * peak)

    det_ok = np.array_equal(tilted.field.values, loop)

    ok = tilt_ok and impulse_ok and det_ok
    report(8, ok, f"zero-tilt == normal path: {tilt_ok}; impulse == geometric: "
                  f"{impulse_ok}; bit-identical to the per-lenslet loop: {det_ok}")
