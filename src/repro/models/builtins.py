"""Built-in cost models: the paper's two plus the related-work zoo.

* ``hockney``   — the contention-blind Proposition-1 baseline (eq. 1);
  with ping-pong context it *is* the paper's Hockney pair, without it
  the α/β are regressed from the All-to-All samples themselves.
* ``signature`` — the paper's §7 contention signature (γ, δ, M); a thin
  port of :func:`repro.core.signature.fit_signature`, bit-identical.
* ``loggp``     — a LogGP-flavoured affine model with a standalone
  latency term and a per-message overhead separated from the per-byte
  gap (Alexandrov et al.; the "improved performance models" baseline of
  Bienz et al.).
* ``max-rate``  — a max-rate / min-bandwidth bottleneck model (Bienz et
  al.): the achievable per-node rate is the minimum of the NIC rate and
  the node's share of the fabric's shared capacity, both read from the
  cluster's :class:`~repro.simnet.topology.Topology` link capacities.
* ``knee``      — the piecewise saturation-knee signature (§9 future
  work), reusing :func:`repro.core.saturation.fit_knee` to place the
  contention ramp between the free and saturated regimes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.bounds import (
    alltoall_lower_bound,
    combined_lower_bound,
    min_startups,
)
from ..core.hockney import HockneyParams
from ..core.med import MED
from ..core.regression import fit_linear
from ..core.saturation import SaturatedSignature, SaturationRamp, fit_knee
from ..core.signature import ContentionSignature, fit_signature
from ..exceptions import FittingError
from ..registry import register_model
from ..simnet.entities import LinkKind
from .base import CostModel, ParamSpec

__all__ = [
    "HockneyModel",
    "SignatureModel",
    "LogGPModel",
    "MaxRateModel",
    "KneeModel",
    "DEFAULT_MODELS",
    "fabric_rates",
]

#: The built-in comparison set, baseline first (selection pipelines and
#: the CLI default to fitting exactly these).
DEFAULT_MODELS = ("hockney", "loggp", "max-rate", "signature", "knee")


def _sample_arrays(samples):
    """(n, m, t, var) arrays from an AlltoallSample iterable (>= 1 row)."""
    samples = list(samples)
    if not samples:
        raise FittingError("no samples to fit")
    n = np.array([s.n_processes for s in samples], dtype=np.float64)
    m = np.array([s.msg_size for s in samples], dtype=np.float64)
    t = np.array([s.mean_time for s in samples], dtype=np.float64)
    var = np.array([s.variance_of_mean for s in samples], dtype=np.float64)
    return n, m, t, var


def _gls_variances(var: np.ndarray):
    """The fit_signature weighting convention: variances only when present."""
    return var if bool(np.any(var > 0)) else None


def _scalar_collapse(result, n_processes, msg_size):
    if np.isscalar(n_processes) and np.isscalar(msg_size):
        return float(result)
    return result


def fabric_rates(cluster, n_hosts: int) -> tuple[float, float | None]:
    """(NIC rate, shared-fabric capacity) from a profile's topology.

    The NIC rate is the host TX link capacity; the shared capacity is
    the narrower of the aggregate trunk and aggregate backplane
    capacities at *n_hosts* hosts (``None`` when the fabric has neither
    — an ideal non-blocking switch).  Trunks are full-duplex — two
    directed :data:`~repro.simnet.entities.LinkKind.TRUNK` links per
    cable — so their sum is halved to the per-direction capacity a flow
    actually competes for; backplanes are one shared link per switch.
    """
    topology = cluster.topology(int(n_hosts))
    nic = float(topology.links[topology.hosts[0].tx_link].capacity)
    sums: dict[LinkKind, float] = {}
    for link in topology.links:
        if link.kind in (LinkKind.TRUNK, LinkKind.BACKPLANE):
            sums[link.kind] = sums.get(link.kind, 0.0) + float(link.capacity)
    if LinkKind.TRUNK in sums:
        sums[LinkKind.TRUNK] /= 2.0
    capacity = min(sums.values()) if sums else None
    return nic, capacity


@register_model("hockney", aliases=("naive", "postal", "prop1"))
class HockneyModel(CostModel):
    """Contention-blind Hockney baseline ``T = (n-1)(α + m·β)`` (eq. 1)."""

    name = "hockney"
    param_schema = (
        ParamSpec("alpha", "s", "point-to-point start-up latency"),
        ParamSpec("beta", "s/B", "inverse link bandwidth"),
    )

    def fit(self, samples, *, hockney=None, cluster=None, method="gls", **_):
        """With *hockney* context, adopt the ping-pong α/β verbatim (the
        paper's usage: eq. 1 is parameterised by the point-to-point
        measure, never refitted on All-to-All data).  Without context,
        regress α/β from the samples through the Proposition-1 design.
        """
        if hockney is not None:
            return self.fitted(
                {"alpha": hockney.alpha, "beta": hockney.beta}
            )
        n, m, t, var = _sample_arrays(samples)
        if t.size < 2:
            raise FittingError("need at least two samples to fit alpha and beta")
        X = np.column_stack([n - 1.0, (n - 1.0) * m])
        fit = fit_linear(X, t, method=method, variances=_gls_variances(var))
        alpha = max(float(fit.params[0]), 0.0)
        beta = float(fit.params[1])
        if beta <= 0:
            raise FittingError(
                f"non-positive fitted beta ({beta:.3g}); samples do not "
                "look like a transmission curve"
            )
        return self.fitted({"alpha": alpha, "beta": beta}, diagnostics=fit)

    def _params(self, params: dict) -> HockneyParams:
        return HockneyParams(alpha=params["alpha"], beta=params["beta"])

    def predict(self, params, n_processes, msg_size):
        return alltoall_lower_bound(n_processes, msg_size, self._params(params))

    def predict_med(self, params, med: MED) -> float:
        return float(combined_lower_bound(med, self._params(params)))


@register_model("signature", aliases=("contention-signature", "gamma-delta"))
class SignatureModel(CostModel):
    """The paper's §7 contention signature ``T = LB·γ + δ·(n-1)·1[m>=M]``."""

    name = "signature"
    param_schema = (
        ParamSpec("alpha", "s", "Hockney start-up (ping-pong)"),
        ParamSpec("beta", "s/B", "Hockney inverse bandwidth (ping-pong)"),
        ParamSpec("gamma", "", "contention ratio over the lower bound"),
        ParamSpec("delta", "s", "per-round start-up above the threshold"),
        ParamSpec("threshold", "B", "affine threshold M", kind="int"),
        ParamSpec("delta_mode", "", "per_round or global", kind="str"),
    )

    def fit(
        self,
        samples,
        *,
        hockney=None,
        cluster=None,
        threshold="auto",
        method="gls",
        delta_mode="per_round",
        prune_delta=True,
        **_,
    ):
        if hockney is None:
            raise FittingError(
                "the contention signature fits (gamma, delta) against the "
                "Hockney lower bound; pass hockney= (ping-pong alpha/beta)"
            )
        fit = fit_signature(
            samples,
            hockney,
            threshold=threshold,
            method=method,
            delta_mode=delta_mode,
            prune_delta=prune_delta,
        )
        return self.fitted(self._to_params(fit.signature), diagnostics=fit)

    @staticmethod
    def _to_params(sig: ContentionSignature) -> dict:
        return {
            "alpha": sig.hockney.alpha,
            "beta": sig.hockney.beta,
            "gamma": sig.gamma,
            "delta": sig.delta,
            "threshold": sig.threshold,
            "delta_mode": sig.delta_mode,
        }

    def signature(self, params: dict) -> ContentionSignature:
        """Rebuild the :class:`ContentionSignature` a params dict encodes."""
        return ContentionSignature(
            gamma=params["gamma"],
            delta=params["delta"],
            threshold=params["threshold"],
            hockney=HockneyParams(alpha=params["alpha"], beta=params["beta"]),
            delta_mode=params["delta_mode"],
        )

    def predict(self, params, n_processes, msg_size):
        return self.signature(params).predict(n_processes, msg_size)

    def predict_med(self, params, med: MED) -> float:
        return self.signature(params).predict_med(med)


@register_model("loggp", aliases=("log-gp",))
class LogGPModel(CostModel):
    """LogGP-style affine model ``T = L + (n-1)·(o + m·G)``."""

    name = "loggp"
    param_schema = (
        ParamSpec("latency", "s", "end-to-end latency L (per collective)"),
        ParamSpec("overhead", "s", "per-message overhead o"),
        ParamSpec("gap", "s/B", "per-byte gap G"),
    )

    def fit(self, samples, *, hockney=None, cluster=None, method="gls", **_):
        n, m, t, var = _sample_arrays(samples)
        if len(set(n.tolist())) < 2:
            raise FittingError(
                "LogGP needs samples at >= 2 process counts to separate "
                "the latency L from the per-message overhead o"
            )
        if t.size < 3:
            raise FittingError("need at least three samples to fit L, o and G")
        X = np.column_stack([np.ones_like(n), n - 1.0, (n - 1.0) * m])
        fit = fit_linear(X, t, method=method, variances=_gls_variances(var))
        latency = max(float(fit.params[0]), 0.0)
        overhead = max(float(fit.params[1]), 0.0)
        gap = float(fit.params[2])
        if gap <= 0:
            raise FittingError(
                f"non-positive fitted gap ({gap:.3g}); samples do not look "
                "like a transmission curve"
            )
        return self.fitted(
            {"latency": latency, "overhead": overhead, "gap": gap},
            diagnostics=fit,
        )

    def predict(self, params, n_processes, msg_size):
        n = np.asarray(n_processes, dtype=np.float64)
        m = np.asarray(msg_size, dtype=np.float64)
        result = params["latency"] + (n - 1.0) * (
            params["overhead"] + m * params["gap"]
        )
        return _scalar_collapse(result, n_processes, msg_size)

    def predict_med(self, params, med: MED) -> float:
        rounds = min_startups(med)
        nbytes = max(med.max_send_bytes, med.max_recv_bytes)
        if rounds == 0:
            return 0.0
        return float(
            params["latency"] + rounds * params["overhead"] + nbytes * params["gap"]
        )


@register_model("max-rate", aliases=("maxrate", "min-bandwidth", "bottleneck"))
class MaxRateModel(CostModel):
    """Max-rate bottleneck model: per-node rate ``min(R_nic, C/n)``.

    Bienz et al.'s observation for irregular communication under
    contention: the achievable injection rate saturates at the node's
    share of the shared-fabric capacity, not at the NIC line rate.  Here
    ``T = (n-1)·α + κ·(n-1)·m / min(R, C/n)`` with R the NIC rate and C
    the shared capacity, both read from the cluster topology (and κ a
    fitted efficiency ratio absorbing protocol overhead).
    """

    name = "max-rate"
    param_schema = (
        ParamSpec("alpha", "s", "per-round start-up"),
        ParamSpec("kappa", "", "fitted inefficiency ratio (>= 0)"),
        ParamSpec("rate", "B/s", "per-NIC injection rate R"),
        ParamSpec("capacity", "B/s", "shared fabric capacity C (0 = unlimited)"),
    )

    def fit(
        self,
        samples,
        *,
        hockney=None,
        cluster=None,
        rate=None,
        capacity=None,
        method="gls",
        **_,
    ):
        n, m, t, var = _sample_arrays(samples)
        if t.size < 2:
            raise FittingError("need at least two samples to fit alpha and kappa")
        if rate is None and cluster is not None:
            rate, derived = fabric_rates(cluster, int(n.max()))
            if capacity is None:
                capacity = derived
        if rate is None and hockney is not None:
            rate = hockney.bandwidth
        if rate is None:
            raise FittingError(
                "max-rate needs a NIC rate: pass rate=, a cluster "
                "(topology link capacities), or hockney context"
            )
        rate = float(rate)
        capacity = 0.0 if capacity is None else float(capacity)
        if rate <= 0 or capacity < 0:
            raise FittingError("max-rate rate/capacity must be positive")
        inv_rate = self._inverse_rate(rate, capacity, n)
        X = np.column_stack([n - 1.0, (n - 1.0) * m * inv_rate])
        fit = fit_linear(X, t, method=method, variances=_gls_variances(var))
        alpha = max(float(fit.params[0]), 0.0)
        kappa = float(fit.params[1])
        if kappa <= 0:
            raise FittingError(
                f"non-positive fitted kappa ({kappa:.3g}); samples do not "
                "look like a bandwidth-bound exchange"
            )
        return self.fitted(
            {"alpha": alpha, "kappa": kappa, "rate": rate, "capacity": capacity},
            diagnostics=fit,
        )

    @staticmethod
    def _inverse_rate(rate: float, capacity: float, n):
        """Seconds per byte at the bottleneck: ``max(1/R, n/C)``."""
        n = np.asarray(n, dtype=np.float64)
        if capacity <= 0:  # unlimited shared fabric
            return np.full_like(n, 1.0 / rate)
        return np.maximum(1.0 / rate, n / capacity)

    def predict(self, params, n_processes, msg_size):
        n = np.asarray(n_processes, dtype=np.float64)
        m = np.asarray(msg_size, dtype=np.float64)
        inv_rate = self._inverse_rate(params["rate"], params["capacity"], n)
        result = (n - 1.0) * params["alpha"] + params["kappa"] * (
            n - 1.0
        ) * m * inv_rate
        return _scalar_collapse(result, n_processes, msg_size)

    def predict_med(self, params, med: MED) -> float:
        inv_rate = float(
            self._inverse_rate(params["rate"], params["capacity"], med.n_processes)
        )
        nbytes = max(med.max_send_bytes, med.max_recv_bytes)
        return float(
            min_startups(med) * params["alpha"]
            + params["kappa"] * nbytes * inv_rate
        )


@register_model("knee", aliases=("saturation", "piecewise-knee"))
class KneeModel(CostModel):
    """Saturation-knee signature: γ ramps from 1 to its saturated value.

    The §9 "intermediate performance model for half-saturate networks":
    a plain signature fit plus a :class:`~repro.core.SaturationRamp`
    located by :func:`~repro.core.fit_knee` from the signature's own
    error-vs-n curve.  Needs samples at >= 3 process counts.
    """

    name = "knee"
    param_schema = SignatureModel.param_schema + (
        ParamSpec("n_free", "", "largest contention-free process count"),
        ParamSpec("n_sat", "", "smallest fully-saturated process count"),
        ParamSpec("power", "", "ramp shape exponent"),
    )

    def fit(
        self,
        samples,
        *,
        hockney=None,
        cluster=None,
        power=1.0,
        threshold="auto",
        method="gls",
        delta_mode="per_round",
        prune_delta=True,
        **_,
    ):
        if hockney is None:
            raise FittingError(
                "the knee model ramps the contention signature; pass "
                "hockney= (ping-pong alpha/beta)"
            )
        samples = list(samples)
        sig_fit = fit_signature(
            samples, hockney,
            threshold=threshold, method=method, delta_mode=delta_mode,
            prune_delta=prune_delta,
        )
        size, curve = self._error_curve(samples, sig_fit.signature)
        sat = fit_knee(
            curve[:, 0], curve[:, 1], sig_fit.signature,
            msg_size=size, power=power,
        )
        params = dict(SignatureModel._to_params(sat.base))
        params.update(
            n_free=sat.ramp.n_free, n_sat=sat.ramp.n_sat, power=sat.ramp.power
        )
        return self.fitted(params, diagnostics=sig_fit)

    @staticmethod
    def _error_curve(samples, signature) -> tuple[float, np.ndarray]:
        """(msg size, (n, error%) rows) at the size with the most n values.

        Seeds/repetitions at the same (n, m) are averaged; ties between
        sizes break towards the largest (the paper's error figures use
        the large-message regime).
        """
        by_size: dict[int, dict[int, list[float]]] = {}
        for s in samples:
            by_size.setdefault(s.msg_size, {}).setdefault(
                s.n_processes, []
            ).append(s.mean_time)
        size = max(by_size, key=lambda m: (len(by_size[m]), m))
        if len(by_size[size]) < 3:
            raise FittingError(
                "the knee model needs samples at >= 3 process counts "
                f"(best message size has {len(by_size[size])})"
            )
        rows = []
        for n in sorted(by_size[size]):
            measured = float(np.mean(by_size[size][n]))
            estimated = float(signature.predict(n, size))
            rows.append((float(n), (measured / estimated - 1.0) * 100.0))
        return float(size), np.asarray(rows, dtype=np.float64)

    def _model(self, params: dict) -> SaturatedSignature:
        base = SignatureModel().signature(
            {k: params[k] for k in ("alpha", "beta", "gamma", "delta",
                                    "threshold", "delta_mode")}
        )
        ramp = SaturationRamp(
            n_free=params["n_free"], n_sat=params["n_sat"], power=params["power"]
        )
        return SaturatedSignature(base=base, ramp=ramp)

    def predict(self, params, n_processes, msg_size):
        return self._model(params).predict(n_processes, msg_size)

    def predict_med(self, params, med: MED) -> float:
        # The ramped signature at n processes IS a plain signature with
        # γ_eff(n) in place of γ — delegate the MED semantics to it.
        model = self._model(params)
        gamma_eff = float(model.gamma_effective(med.n_processes))
        return replace(model.base, gamma=gamma_eff).predict_med(med)
