"""A sweep's whole received stream, its receive blank and the correlator's
despread on it, kept in test code as an oracle: a SweepPipeline never
builds the stream, but reads only the despread windows that
channel.despread_windows builds.  Those sum the same terms in another
order, so they equal the oracle to rounding, within the bound that
assert_rounding_close checks."""

import dataclasses

import numpy as np

from pnradar import SampleStream
from pnradar.channel import _block_terms
from pnradar.receiver import check_blank_width

# The largest |window - oracle| / (eps * S + tiny) seen was 4.95, and 2.46
# for profiles, over 40 Hypothesis seeds of the tests that call
# assert_rounding_close (about 14,000 examples); the bound leaves a factor
# of 6.
ROUNDING_ULPS = 32


def propagate(tx, scene, params, pol, sweep_index=0):
    """One sweep's whole received stream: what channel._block_terms gives,
    added in its order.  Each term adds its amplitude times each chip's
    pulse, chip by chip, as far as the stream reaches; each noise rail is
    one whole draw."""
    terms, interferers, noise = _block_terms(
        tx, scene, params, pol, range(sweep_index, sweep_index + 1))
    n = len(tx)
    out = np.zeros((1, n), dtype=np.complex128)
    # shaped[j] is chip j's pulse, sent from sample j*period
    shaped = tx.chips[:, None] * tx.pulse.samples[None, :]
    for amp, d in terms:
        for pulse, s in zip(shaped, range(d, n, tx.period)):
            out[:, s:s + pulse.size] += amp * pulse[None, :n - s]
    for samples in interferers:
        out += samples(0, n)
    scale = np.sqrt(scene.noise_psd * params.sample_rate_hz / 2.0)
    for row, rng in zip(out, noise):
        z = rng.standard_normal(2 * n)
        z *= scale
        row.real += z[:n]
        row.imag += z[n:]
    return SampleStream(out[0], params.sample_rate_hz, params.carrier_hz)


def rx_gate(s, params, blank_width_s):
    """Blank the receiver while the transmitter fires: zero the first
    to_samples(blank) samples of each PRI slot (see check_blank_width)."""
    blank = check_blank_width(params, blank_width_s)
    blanked = np.arange(len(s)) % params.pri_samples < blank
    return s.with_samples(np.where(blanked, 0.0, s.samples))


def despread_stream(rx, train, window):
    """sum_j train.chips[j] * rx[window.start + j*period : window.stop +
    j*period], one complex sum taken chip by chip in chip order."""
    z = np.zeros(len(window), dtype=np.complex128)
    for j, chip in enumerate(train.chips):
        start = window.start + j * train.period
        z += chip * rx[start:start + len(window)]
    return z


def lag_window(template, lags):
    """The samples of chip 0's slot that the correlator reads for lags:
    their overlaps with one pulse."""
    return range(lags.start, lags.start + len(lags) + len(template.pulse) - 1)


def stream_profile(rx, template, lags):
    """Profile values of a received (and already blanked) stream rx over
    lags: its despread lag window matched against the conjugated pulse."""
    z = despread_stream(rx, template, lag_window(template, lags))
    return np.correlate(z, template.pulse.samples, mode="valid")


def _magnitudes(train, scene, params, pol, sweep):
    """Each sample of the sweep's received stream as the sum of the
    magnitudes of what propagate adds to it: each chip of each echo and
    of the direct path, each interferer, and the noise of either rail."""
    terms, interferers, noise = _block_terms(train, scene, params, pol,
                                             range(sweep, sweep + 1))
    n, pulse = len(train), np.abs(train.pulse.samples)
    m = np.zeros(n)
    for amp, d in terms:
        for j, chip in enumerate(train.chips):
            s = d + j * train.period
            m[s:s + pulse.size] += abs(amp[0, 0] * chip) * pulse[:max(n - s, 0)]
    for samples in interferers:
        m += np.abs(samples(0, n)[0])
    scale = np.sqrt(scene.noise_psd * params.sample_rate_hz / 2.0)
    for rng in noise:
        draws = np.abs(rng.standard_normal(2 * n)) * scale
        m += draws[:n] + draws[n:]
    return m


def assert_rounding_close(got, want, train, scene, params, pol, sweep,
                          window, pulse=None):
    """|got - want| <= ROUNDING_ULPS * (eps * S + tiny), sample by sample,
    for the despread window ``got`` of one sweep and its oracle ``want``:
    S is the chip-weighted despread sum_j |c_j| * m[window + j*period] of
    the sweep's magnitudes m (see _magnitudes), and tiny the smallest
    subnormal, the step of a product that underflows (chips of 1e-158
    square to one).  Given the template's ``pulse``, got and want are
    profiles, the windows matched against it, and S is carried through
    the match with |pulse|."""
    bound = despread_stream(
        _magnitudes(train, scene, params, pol, sweep),
        dataclasses.replace(train, chips=np.abs(train.chips)), window).real
    if pulse is not None:
        bound = np.correlate(bound, np.abs(pulse.samples), mode="valid")
    assert got.shape == want.shape == bound.shape
    err = np.abs(got - want)
    f64 = np.finfo(np.float64)
    over = err > ROUNDING_ULPS * (f64.eps * bound + f64.smallest_subnormal)
    assert not over.any(), (
        f"{int(over.sum())} of {over.size} samples differ by more than "
        f"{ROUNDING_ULPS} eps of their bound, first at "
        f"{int(np.argmax(over))}")
