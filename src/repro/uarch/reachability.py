"""Conservative unit-reachability: which features *can* see a secret.

Given a campaign's merged :class:`~repro.taint.publicness.PublicnessMap`
and a :class:`CoreConfig`, :func:`prunable_features` decides which of the
Table IV features provably cannot observe any secret-derived state, so the
tracer may skip digesting them.  The table errs conservative by
construction — its *only* job is to exonerate features, and it does so
exclusively for campaigns whose dynamic taint witness shows:

* no escalation (no implicit flow: every secret byte is accounted for);
* no taint-derived branch direction or jump target (control flow, and
  hence every PC-keyed / occupancy-keyed / predictor-keyed feature, is
  input-invariant);
* no taint-derived memory *address*, architecturally or in the bounded
  transient shadow of any mispredictable branch (address-keyed features —
  queues, caches, TLB, MSHRs, prefetcher — see the same addresses for
  every secret).

Under those three facts the secret can only ever sit in *data* paths:
register values, store data, cache-line contents.  Almost every feature
samples addresses, PCs or occupancies — invariant here — and the ones that
sample latency-coupled unit busyness (EUU-DIV with an early-exit divider,
fast-bypass ALU short-circuits) stay reachable whenever the configuration
actually models the value-dependent timing.  What always remains is the
set of features that sample raw *data* bytes (``LFB-Data``, the paper's
line-fill-buffer content channel): secret bytes transit it on every fill
regardless of control or address invariance, so it is never pruned.
"""

from __future__ import annotations

from repro.uarch.config import CoreConfig

#: Features that sample microarchitectural *data* bytes, not addresses,
#: PCs or occupancies.  Secret values flow through these even in perfectly
#: constant-time code, so taint can never exonerate them.
DATA_CARRYING_FEATURES = frozenset({"LFB-Data"})


def reachable_features(publicness, config: CoreConfig,
                       feature_ids) -> frozenset:
    """The subset of ``feature_ids`` a secret could influence.

    ``publicness`` is the campaign-merged
    :class:`~repro.taint.publicness.PublicnessMap`.  Conservative: returns
    everything unless the map proves control flow and all memory addresses
    (architectural *and* transient) are secret-independent.
    """
    feature_ids = frozenset(feature_ids)
    if (publicness.escalated
            or publicness.tainted_branch_pcs
            or publicness.tainted_mem_pcs
            or publicness.transient_mem_pcs):
        return feature_ids
    reachable = set(DATA_CARRYING_FEATURES)
    if config.variable_div_latency and publicness.tainted_div_pcs:
        # Early-exit divider: operand values modulate EUU-DIV busy spans,
        # and through issue backpressure potentially every other unit.
        return feature_ids
    if config.fast_bypass and publicness.tainted_pcs:
        # Trivial-computation bypass: operand values modulate ALU latency.
        return feature_ids
    return frozenset(reachable & feature_ids)


def prunable_features(publicness, config: CoreConfig,
                      feature_ids) -> frozenset:
    """Features taint proves secret-free — safe for the tracer to skip."""
    feature_ids = frozenset(feature_ids)
    return feature_ids - reachable_features(publicness, config, feature_ids)


def project_reachability(publicness, configs, feature_ids) -> dict:
    """Per-config reachable sets from one shared publicness map.

    The taint witness is config-independent (it is computed on the
    functional interpreter); only this projection consults the core
    configuration (value-dependent divider latency, fast bypass), so one
    witness yields every config's reachable/pruned split — each entry is
    exactly what :func:`reachable_features` returns for that config
    standalone.

    Returns ``{config.name: frozenset(reachable feature ids)}``.
    """
    return {
        config.name: reachable_features(publicness, config, feature_ids)
        for config in configs
    }
