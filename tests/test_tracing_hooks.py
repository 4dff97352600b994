"""The traced benchmark wraps layer functions by name; keep those names alive."""

import importlib.util
import sys
from pathlib import Path

from busycheck import proofs, semantics
from busycheck.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_attribute_it_patches(monkeypatch):
    tracer = _load_tracing(monkeypatch).Tracer()
    originals = (proofs.view_shift, semantics.RandomFairScheduler.pick)
    try:
        tracer.install()  # getattr raises AttributeError on a renamed target
        assert proofs.view_shift is not originals[0]
    finally:
        tracer.uninstall()
    assert (proofs.view_shift, semantics.RandomFairScheduler.pick) == originals


def test_tracer_counts_the_certificate_path(monkeypatch, tmp_path, capsys):
    tracer = _load_tracing(monkeypatch).Tracer()
    cert = str(tmp_path / "cert.json")
    try:
        tracer.install()
        assert main(["verify", "-e", "fork { exit }; fork { exit }; loop skip", "--emit-cert", cert]) == 0
        assert main(["check-proof", cert]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.split() == ["Verified", "Ok"]
    calls = tracer.aggregate()[2]
    # the program text is parsed by `verify`; a certificate holds no program text
    assert calls["proofs.cert_io"] == 2
    assert calls["lang.parse"] == 1
