"""Multi-model routing: one server process, many independent artifacts.

PR 7 put a :class:`~repro.serving.manager.PredictorManager` between the
server and its predictor so one model could be hot-swapped under
traffic.  :class:`ModelRouter` is the next turn of that seam: a mapping
from **model names** to fully independent managers — each with its own
artifact path, watcher, generation counter, swap history and fault
domain — behind one HTTP listener:

* ``POST /models/<name>/predict`` routes to that model's manager;
  ``POST /predict`` is an alias for the configurable **default model**,
  so single-model deployments and old clients keep working unchanged.
* Reload triggers are per model: the watcher polls every artifact
  independently, ``POST /admin/reload`` takes an optional model name
  (no name = reload everything), and SIGHUP reloads all models.
* Fault isolation is the point: a corrupt publish of one model rolls
  that model back and degrades aggregate readiness, while sibling
  models keep answering with zero errors
  (``tests/serving/test_router.py`` pins this).

Aggregate health is conservative: the router is **ready** only when
every model is (a fleet that load-balances on ``/readyz`` must not
route traffic to a server that would 500 one of its models), and the
per-model detail is exposed on ``/healthz`` so an operator can see
*which* model degraded readiness.
"""

from __future__ import annotations

from pathlib import Path

from repro.serving.manager import PredictorManager

__all__ = ["ModelRouter", "UnknownModelError"]

#: Characters allowed in a model name: it is a URL path segment and a
#: CLI token, so keep it boring.
_NAME_OK = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


class UnknownModelError(KeyError):
    """Lookup of a model name this router does not serve (HTTP 404)."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown model {self.name!r} (serving: "
            f"{', '.join(sorted(self.known))})"
        )


def validate_model_name(name: str) -> str:
    """Reject names that cannot survive a URL path or a CLI flag."""
    if not name or not set(name) <= _NAME_OK or name.startswith("."):
        raise ValueError(
            f"invalid model name {name!r}: use letters, digits, '.', '_', "
            "'-' (must not start with '.')"
        )
    return name


class ModelRouter:
    """Name → :class:`PredictorManager` routing with a default alias.

    Build one from artifact paths with :meth:`from_specs` (what the CLI
    does) or from already-constructed managers (tests, embedders).

    Parameters
    ----------
    managers:
        Mapping of model name to manager.  Each manager is owned by the
        router from here on: :meth:`close` closes them all.
    default:
        The model ``/predict`` aliases to.  Must be a key of
        ``managers``; defaults to the only model when there is exactly
        one.
    """

    def __init__(self, managers: dict[str, PredictorManager],
                 default: str | None = None):
        if not managers:
            raise ValueError("ModelRouter needs at least one model")
        self._managers = {
            validate_model_name(name): manager
            for name, manager in managers.items()
        }
        if default is None:
            if len(self._managers) != 1:
                raise ValueError(
                    "default model is required when serving more than one "
                    f"model (have: {', '.join(sorted(self._managers))})"
                )
            default = next(iter(self._managers))
        if default not in self._managers:
            raise ValueError(
                f"default model {default!r} is not among the served models "
                f"({', '.join(sorted(self._managers))})"
            )
        self.default = default

    @classmethod
    def from_specs(cls, specs: dict[str, str | Path],
                   default: str | None = None, *, verify: bool = True,
                   poll_interval: float = 2.0,
                   fault_injector=None) -> "ModelRouter":
        """Load one manager per ``name -> artifact path`` entry.

        A load failure closes the managers already opened before
        re-raising — startup either serves every requested model or
        nothing.  ``fault_injector`` (tests only) is scoped per model via
        :meth:`~repro.serving.faults._FaultInjector.for_model`, so chaos
        can be armed against one model without touching its siblings.
        """
        managers: dict[str, PredictorManager] = {}
        try:
            for name, path in specs.items():
                validate_model_name(name)
                injector = (
                    fault_injector.for_model(name)
                    if fault_injector is not None
                    else None
                )
                managers[name] = PredictorManager(
                    path, verify=verify, poll_interval=poll_interval,
                    fault_injector=injector,
                )
        except Exception:
            for manager in managers.values():
                manager.close()
            raise
        return cls(managers, default)

    # -- lookup ----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Served model names, sorted (stable for health payloads)."""
        return sorted(self._managers)

    def __len__(self) -> int:
        return len(self._managers)

    def __contains__(self, name: str) -> bool:
        return name in self._managers

    def get(self, name: str | None = None) -> PredictorManager:
        """The manager for ``name`` (``None`` = the default model)."""
        if name is None:
            name = self.default
        try:
            return self._managers[name]
        except KeyError:
            raise UnknownModelError(name, self.names) from None

    def items(self):
        return self._managers.items()

    # -- aggregate health ------------------------------------------------

    @property
    def healthy(self) -> bool:
        """``True`` only when every model's last reload succeeded."""
        return all(m.healthy for m in self._managers.values())

    def unhealthy_models(self) -> dict[str, str]:
        """``name -> last_error`` for every currently unhealthy model."""
        return {
            name: manager.last_error
            for name, manager in self._managers.items()
            if not manager.healthy
        }

    def stats(self) -> dict:
        return {
            "default_model": self.default,
            "n_models": len(self._managers),
            "models": {
                name: manager.stats()
                for name, manager in sorted(self._managers.items())
            },
        }

    def describe_models(self) -> dict:
        """Per-model health detail for ``/healthz``."""
        out = {}
        for name, manager in sorted(self._managers.items()):
            predictor = manager.current
            out[name] = {
                "path": str(predictor.path),
                "n_balls": predictor.n_balls,
                "n_features": predictor.n_features,
                "generation": manager.generation,
                "healthy": manager.healthy,
                "last_error": manager.last_error,
                "swaps": manager.history(),
            }
        return out

    # -- reload fan-out --------------------------------------------------

    async def reload(self, model: str | None = None,
                     reason: str = "admin") -> dict:
        """Reload one model, or every model when ``model`` is ``None``.

        One model returns its swap-history entry directly (plus the
        ``model`` key).  All-model reloads return
        ``{"status": ..., "models": {name: entry}}`` where the aggregate
        status is ``"swapped"`` only if every per-model attempt swapped —
        a deploy script gating on the aggregate cannot miss a partial
        failure.  A single-model router returns the plain entry either
        way, so pre-router callers (which read ``seconds``/``reason``
        off a bare reload) keep working.
        """
        if model is None and len(self._managers) == 1:
            model = self.default
        if model is not None:
            entry = dict(await self.get(model).reload(reason=reason))
            entry["model"] = model
            return entry
        entries = {}
        for name, manager in sorted(self._managers.items()):
            entries[name] = await manager.reload(reason=reason)
        aggregate = (
            "swapped"
            if all(e["status"] == "swapped" for e in entries.values())
            else "rolled-back"
        )
        return {"status": aggregate, "models": entries}

    async def start_watching(self) -> None:
        for manager in self._managers.values():
            await manager.start_watching()

    async def stop_watching(self) -> None:
        for manager in self._managers.values():
            await manager.stop_watching()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        for manager in self._managers.values():
            manager.close()

    def __enter__(self) -> "ModelRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
