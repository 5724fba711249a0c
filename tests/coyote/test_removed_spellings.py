"""Removed pre-redesign spellings fail loudly; canonical ones parse.

The flat NoC overrides and config keys, ``ConfigBuilder.noc_latency``,
``SweepTable.format``, ``load_fault_plan``, ``make_noc``'s kind-string
form and the ``--noc``/``--noc-latency``/``--checkpoint-at`` flags are
gone (docs/API.md lists their replacements).  None of them may be
silently accepted: a removed flag exits through the parser error, and a
removed key or name raises.
"""

import pytest

from repro.coyote.cli import build_parser, build_profile_parser
from repro.coyote.config import SimulationConfig
from repro.coyote.sweep import SweepTable
from repro.memhier.noc import make_noc
from repro.sparta.scheduler import Scheduler
from repro.sparta.unit import Unit


def _legacy_memhier_key(key, value):
    data = SimulationConfig.for_cores(2).to_dict()
    data["memhier"][key] = value
    return SimulationConfig.from_dict(data)


def _load_fault_plan():
    from repro.resilience.faults import load_fault_plan  # noqa: F401


def _kind_string_noc():
    return make_noc("mesh", "noc", Unit("top", scheduler=Scheduler()))


def _parse(parser, *flags):
    return lambda: parser().parse_args(["--kernel", "scalar-matmul",
                                        *flags])


REMOVED = [
    ("--noc", _parse(build_parser, "--noc", "mesh"), SystemExit),
    ("--noc-latency", _parse(build_parser, "--noc-latency", "9"),
     SystemExit),
    ("--checkpoint-at", _parse(build_parser, "--checkpoint-at", "1300"),
     SystemExit),
    ("profile --noc-latency",
     _parse(build_profile_parser, "--noc-latency", "9"), SystemExit),
    ("noc_kind=", lambda: SimulationConfig.for_cores(2, noc_kind="mesh"),
     TypeError),
    ("noc_latency=", lambda: SimulationConfig.for_cores(2, noc_latency=3),
     TypeError),
    ("mesh_columns=",
     lambda: SimulationConfig.for_cores(2, mesh_columns=2), TypeError),
    ("memhier.noc_kind", lambda: _legacy_memhier_key("noc_kind", "mesh"),
     TypeError),
    ("memhier.noc_latency", lambda: _legacy_memhier_key("noc_latency", 4),
     TypeError),
    ("ConfigBuilder.noc_latency",
     lambda: SimulationConfig.builder(2).noc_latency(9), AttributeError),
    ("SweepTable.format",
     lambda: SweepTable(axes={}, points=[]).format(), AttributeError),
    ("load_fault_plan", _load_fault_plan, ImportError),
    ("make_noc kind string", _kind_string_noc, AttributeError),
]


@pytest.mark.parametrize(
    "call, error",
    [pytest.param(call, error, id=name) for name, call, error in REMOVED])
def test_removed_spelling_fails_loudly(call, error, capsys):
    with pytest.raises(error) as raised:
        call()
    if error is SystemExit:
        assert raised.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCanonicalSpellings:
    def test_canonical_noc_flags(self):
        args = build_parser().parse_args(
            ["--kernel", "scalar-matmul", "--noc-topology", "torus",
             "--noc-routing", "adaptive", "--noc-crossbar-latency", "9"])
        assert args.noc_topology == "torus"
        assert args.noc_routing == "adaptive"
        assert args.noc_crossbar_latency == 9

    def test_pause_at_flag(self):
        args = build_parser().parse_args(
            ["--kernel", "scalar-matmul", "--pause-at", "1300"])
        assert args.pause_at == 1300

    def test_builder_noc_method(self):
        built = SimulationConfig.builder(2).noc("mesh", latency=9).build()
        assert (built.noc.kind, built.noc.latency) == ("mesh", 9)
