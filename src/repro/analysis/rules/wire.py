"""WIRE-series rules: the two codecs and the fault surface must agree.

``repro-wire/2`` (PR 6) duplicated the value vocabulary: every payload
now has a JSON form (v1) and a binary form (v2), and the receiver-side
validation story — corrupted labels stay value-faithful, garbage stays
decodable as garbage — holds only while the two halves of each codec and
the fuzz corpus move in lockstep. These rules pin the lockstep
statically, from the phase-1 wire-schema table:

* **WIRE001** — every registered v2 tag byte (``_T_*``) must have both
  an encode-dispatch arm (the tag is written into an output buffer) and
  a decode-dispatch arm (the tag is compared against input). A one-sided
  tag is codec drift: values that serialize but never parse back, or
  dead vocabulary that a corrupted byte can alias onto.
* **WIRE002** — every payload type the wire registry can carry must
  appear in the differential v1/v2 test corpus (``tests/net/
  test_wire*.py``); a registered-but-unfuzzed message type is exactly
  where v1/v2 divergence hides.
* **WIRE003** — classes in the live hosting layer (``daemon.py``,
  ``bridge.py``, ``group.py``, ``cluster.py`` and the fabric's hosting
  modules) must declare their state in
  ``CORRUPTION_REGISTRY``, extending STAB001's completeness argument
  past the sim boundary: the stabilization story needs to say, for every
  attribute a live host carries, whether the fault model reaches it or
  why it is exempt.
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.analysis.core import Finding, ModuleInfo, Rule, register_rule
from repro.analysis.model import ProgramModel

#: Live-tier modules whose classes host or bridge protocol processes.
HOSTING_LAYER_FILES = (
    "repro/net/daemon.py",
    "repro/net/bridge.py",
    "repro/net/cluster.py",
    "repro/net/group.py",
    "repro/fabric/ring.py",
    "repro/fabric/topology.py",
    "repro/fabric/host.py",
    "repro/fabric/supervisor.py",
    "repro/fabric/client.py",
    "repro/fabric/kv.py",
)


@register_rule
class OneSidedTagRule(Rule):
    rule_id = "WIRE001"
    title = "v2 wire tag missing an encode or decode dispatch arm"
    rationale = (
        "A tag byte the encoder emits but the decoder never matches (or "
        "vice versa) is silent codec drift; the differential v1/v2 "
        "guarantee only covers tags both arms know."
    )

    def check(self, module: ModuleInfo, model: ProgramModel) -> Iterator[Finding]:
        wire = model.wire_in(module.relpath)
        if wire is None:
            return
        for name in sorted(wire.tags):
            value, line = wire.tags[name]
            missing = []
            if name not in wire.encode_arms:
                missing.append("encode")
            if name not in wire.decode_arms:
                missing.append("decode")
            if missing:
                yield module.finding_at(
                    line,
                    self.rule_id,
                    f"tag {name} (0x{value:02X}) has no "
                    f"{' or '.join(missing)} dispatch arm",
                )


@register_rule
class UnfuzzedPayloadRule(Rule):
    rule_id = "WIRE002"
    title = "registered payload type absent from the differential corpus"
    rationale = (
        "The v1/v2 equivalence claim is only as strong as the corpus; a "
        "message type the fuzz strategies never emit is untested wire "
        "surface."
    )

    def check(self, module: ModuleInfo, model: ProgramModel) -> Iterator[Finding]:
        wire = model.wire_in(module.relpath)
        if wire is None or not wire.payload_types:
            return
        if model.corpus is None:
            return  # no test tree reachable (installed-package lint)
        corpus_desc = ", ".join(model.corpus_files) or "corpus"
        for name in sorted(wire.payload_types):
            if name not in model.corpus:
                yield module.finding_at(
                    wire.payload_types[name],
                    self.rule_id,
                    f"payload type {name} is wire-registered but never "
                    f"referenced by the differential corpus ({corpus_desc})",
                )


@register_rule
class UndeclaredHostStateRule(Rule):
    rule_id = "WIRE003"
    title = "live hosting-layer state missing from the corruption registry"
    rationale = (
        "ServerDaemon and its peers carry the hosted process plus live "
        "plumbing; every attribute must be declared (or the class "
        "exempted with a reason) in CORRUPTION_REGISTRY so the "
        "stabilization claims stay auditable across the sim/live "
        "boundary."
    )

    def check(self, module: ModuleInfo, model: ProgramModel) -> Iterator[Finding]:
        if module.relpath not in HOSTING_LAYER_FILES:
            return
        registry = _load_registry(model)
        for cls in model.classes_in(module.relpath):
            if not cls.attrs:
                continue
            entry = registry.get(cls.name)
            if isinstance(entry, str):
                continue  # class-level exemption with inline justification
            if entry is None:
                for attr in sorted(cls.attrs):
                    yield module.finding_at(
                        cls.attrs[attr],
                        self.rule_id,
                        f"{cls.name}.{attr} initialized but live class "
                        f"{cls.name!r} has no CORRUPTION_REGISTRY entry",
                    )
                continue
            for attr in sorted(cls.attrs):
                if attr not in entry:
                    yield module.finding_at(
                        cls.attrs[attr],
                        self.rule_id,
                        f"{cls.name}.{attr} is not declared in the "
                        f"corruption registry — the live tier's fault "
                        f"story does not account for it",
                    )
            for declared in sorted(entry):
                if declared not in cls.attrs:
                    yield module.finding_at(
                        cls.lineno,
                        self.rule_id,
                        f"stale registry entry: {cls.name}.{declared} is "
                        f"declared but never initialized by the class",
                    )


def _load_registry(model: ProgramModel) -> dict[str, Union[dict[str, str], str]]:
    if model.corruption_registry is not None:
        return model.corruption_registry
    from repro.sim.faults import CORRUPTION_REGISTRY

    return CORRUPTION_REGISTRY
