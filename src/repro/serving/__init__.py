"""The serving subsystem: freeze once, predict millions of times.

Every model in this library is write-once/read-many — granulation is the
expensive build step, prediction afterwards is pure array lookups.  This
package is the "read many" half of that asymmetry (cf. the ZXC WORM codec
design: spend unbounded encoder time once so the million-times-repeated
decode path is as fast as the hardware allows):

* :mod:`repro.serving.artifact` — a versioned, checksummed, mmap-able
  binary container for frozen model state (SoA ball arrays + precomputed
  acceleration state), published by atomic rename.
* :mod:`repro.serving.predictor` — :class:`FrozenPredictor`, whose batched
  predict path is bit-identical to a fitted
  :class:`~repro.classifiers.gb_classifier.GranularBallClassifier` while
  allocating nothing per request beyond the output.
* :mod:`repro.serving.batching` — :class:`MicroBatcher`, answering the
  requests that arrive within one event-loop turn with one vectorised pass.
* :mod:`repro.serving.manager` — :class:`PredictorManager`, hot artifact
  reload: watch the artifact path, validate the replacement, swap it
  atomically under live traffic, roll back on a corrupt publish.
* :mod:`repro.serving.router` — :class:`ModelRouter`, one server process
  routing many model names to independent managers
  (``POST /models/<name>/predict``), with per-model reload and fault
  isolation and all-models-ready aggregate readiness.
* :mod:`repro.serving.wire` — the versioned binary request/response
  codec (``Content-Type: application/x-gbaf-batch``): raw C-contiguous
  array rows instead of JSON float text on the hot path.
* :mod:`repro.serving.server` — the ``repro serve`` asyncio HTTP service
  with admission control, per-request deadlines, liveness/readiness
  endpoints and graceful SIGTERM drain.
* :mod:`repro.serving.client` — :class:`~repro.serving.client.PredictClient`
  with reconnect-on-close and capped exponential backoff, so fleets ride
  through reloads and shedding invisibly.
* :mod:`repro.serving.faults` — the chaos harness
  (:class:`~repro.serving.faults._FaultInjector`) driving the
  resilience test-suite.

See ``docs/architecture/serving.md`` for the format layout, the parity
contract, the micro-batching design and the resilience layer.
"""

from repro.serving.artifact import (
    Artifact,
    FORMAT_VERSION,
    freeze_classifier,
    load_artifact,
    write_artifact,
)
from repro.serving.batching import BatcherClosedError, MicroBatcher
from repro.serving.manager import PredictorManager
from repro.serving.predictor import FrozenPredictor
from repro.serving.router import ModelRouter, UnknownModelError
from repro.serving.wire import (
    WIRE_CONTENT_TYPE,
    WIRE_VERSION,
    WireError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

__all__ = [
    "Artifact",
    "BatcherClosedError",
    "FORMAT_VERSION",
    "FrozenPredictor",
    "MicroBatcher",
    "ModelRouter",
    "PredictorManager",
    "UnknownModelError",
    "WIRE_CONTENT_TYPE",
    "WIRE_VERSION",
    "WireError",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "freeze_classifier",
    "load_artifact",
    "write_artifact",
]
