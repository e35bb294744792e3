"""Loss-free buffer peaks of the verifier engine equal Sec. 3's metrics.

For the schemes whose receiver occupancy is the paper's buffer formula —
sign-each and Wong–Lam (every packet verifies alone: nothing buffered),
and the offline and online Gennaro–Rohatgi chains (each packet verifies
on arrival, one trusted hash or key fingerprint waiting for the next) —
a loss-free trial through the scheme's own verifier peaks at exactly
``metrics(n).message_buffer`` and ``metrics(n).hash_buffer``.

EMSS and augmented chains are left out: there the label formula and the
measured occupancy are different quantities.
"""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes import make_scheme

SIGNER = HmacStubSigner(key=b"buffer-metrics")


@pytest.mark.parametrize("n", [12, 33])
@pytest.mark.parametrize("spec", ["sign-each", "wong-lam", "rohatgi",
                                  "rohatgi-online"])
def test_loss_free_peaks_equal_the_buffer_metrics(spec, n):
    scheme = make_scheme(spec)
    trial = scheme.new_trial(SIGNER, n, 1, seed=5)
    verifier = trial.new_verifier()
    for packet in trial.packets:
        verifier.receive(packet, packet.send_time)
    verifier.finish()
    assert all(verifier.verdict(seq).verified for seq in trial.positions)
    metrics = scheme.metrics(n)
    assert (verifier.message_buffer_peak, verifier.hash_buffer_peak) == \
        (metrics.message_buffer, metrics.hash_buffer)
