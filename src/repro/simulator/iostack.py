"""Multi-GPU GPU-initiated NVMe I/O stack model (paper Section 3.1).

Moment extends Hyperion's single-GPU stack: each GPU owns NVMe
submission/completion queue pairs and issues page-granular reads
directly to SSDs, with the drive DMA-ing data into GPU application
buffers.  For the epoch simulator the relevant behaviour is the
*attainable read bandwidth per drive* as a function of request size and
aggregate queue depth — a small-page random-read workload is IOPS-bound
before it is bandwidth-bound.

The per-GPU stack shape (BaM-style) and the failed-read retry ladder
are module constants: when a drive drops off the bus, in-flight reads
time out and the stack retries each :data:`MAX_RETRIES` times with
exponential backoff before declaring the drive dead and re-routing the
page to the surviving replica tier.  The one-time detection cost per
failure event is :data:`DETECTION_STALL_S`; afterwards the re-routed
reads run at the recovery tier's bandwidth (see
:class:`repro.faults.injector.FaultInjector`).
"""

from __future__ import annotations

from repro.hardware.specs import SsdSpec
from repro.utils.validation import check_positive

#: NVMe submission/completion queue pairs per GPU.
QUEUE_PAIRS = 128
#: Entries per queue.
QUEUE_DEPTH = 1024
#: Bytes per page request.
PAGE_BYTES = 4096
#: Failed-read timeout before the first retry.
RETRY_TIMEOUT_S = 2e-3
#: Retries per page before a drive is declared dead.
MAX_RETRIES = 3
#: Timeout multiplier per retry.
RETRY_BACKOFF = 2.0
#: Wall-clock lost detecting one dead drive: the full retry ladder
#: (timeout, then backoff-scaled timeouts).
DETECTION_STALL_S = sum(
    RETRY_TIMEOUT_S * RETRY_BACKOFF**i for i in range(MAX_RETRIES)
)


def effective_read_bw(
    ssd: SsdSpec, page_bytes: int, queue_depth: int = 1024
) -> float:
    """Attainable sequential-equivalent read bandwidth of one drive.

    ``min(bandwidth, IOPS * page)`` with a saturation factor for shallow
    queues (NVMe drives need concurrency to reach rated IOPS; we model
    the standard closed-queue knee ``qd / (qd + qd_half)``).
    """
    check_positive("page_bytes", page_bytes)
    check_positive("queue_depth", queue_depth)
    qd_half = 64.0  # queue depth at which half of rated IOPS is reached
    saturation = queue_depth / (queue_depth + qd_half)
    iops_bound = ssd.read_iops * page_bytes * saturation
    return min(ssd.read_bw, iops_bound)


def pages_for_bytes(nbytes: float, page_bytes: int) -> int:
    """Number of page requests needed for a transfer."""
    check_positive("page_bytes", page_bytes)
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    return int(-(-nbytes // page_bytes))  # ceil-div
