"""The correlator's despread on a whole received stream, kept in test code
as an oracle: a SweepPipeline never builds the stream, but reads only the
despread windows that channel.despread_windows builds."""

import numpy as np


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
