"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import spfp


def test_every_exported_name_resolves():
    names = ["spfp"] + [f"spfp.{m.name}" for m in pkgutil.iter_modules(spfp.__path__)]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        absent = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
        if absent:
            missing[name] = absent
    assert missing == {}
