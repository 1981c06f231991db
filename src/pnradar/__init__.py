"""pnradar: sample-accurate simulator for pulsed DSSS-QPSK and DS-UWB
impulse imaging radar, from waveform synthesis through a cluttered
channel to range profiling and cross-section estimation."""

# numpy loads numpy.random on first use; loading it with the package
# keeps that import time out of a run's first sweep.
import numpy.random  # noqa: F401

from .codes import CodeKind, PnSequence, gen_gold, gen_mseq, PREFERRED_PAIRS
from .waveform import (Mode, PulseTrain, RadarParams, SampleStream,
                       SPEED_OF_LIGHT, gaussian_monocycle, nb_params,
                       qpsk_baseband, spread, uwb_params, uwb_pulse_train)
from .channel import (Interferer, InterfererKind, Pol, Scatterer, Scene,
                      TargetModel, add_interferer, despread_windows,
                      gen_clutter, identity_pol_matrix)
from .receiver import despread, processing_gain, qpsk_demod, uwb_correlate
from .imaging import (Calibration, Detection, NoDetections, RangeProfile,
                      RcsEstimate, ReceiverConfig, ScanImage, ScanRows,
                      SweepPipeline, calibrate, make_waveform,
                      pulse_volume_depth, rcs_nb, rcs_uwb, scan_image,
                      scan_rows, self_calibrate)

__version__ = "0.1.0"
