"""Every table that a translation fills has a declared lifetime.

Hash-consing tables (``formula._interned``, ``proplogic._nodes``) live as
long as the process; every other module-level table is made by
``formula.memo()`` and emptied when a translation starts; there is no
``lru_cache``.
"""

import importlib
import inspect
import pkgutil

import pastdra
from pastdra import formula as F
from pastdra import proplogic as P
from pastdra.translate import TranslationContext, translate


def _modules():
    return [importlib.import_module("pastdra." + m.name)
            for m in pkgutil.iter_modules(pastdra.__path__)]


def _module_dicts():
    return {(mod.__name__, name): table for mod in _modules()
            for name, table in vars(mod).items()
            if isinstance(table, dict) and not name.startswith("__")}


def test_growing_tables_are_hash_consing_or_translation_memos():
    F.clear_memos()  # else earlier tests may leave larger tables behind
    before = {key: len(table) for key, table in _module_dicts().items()}
    phi = F.parse("G(cache_p -> O cache_q) & F(cache_r S cache_p)")
    translate(phi)
    tables = _module_dicts()
    grown = {key for key, table in tables.items()
             if len(table) > before.get(key, 0)}
    owned = {id(F._interned), id(P._nodes)} | {id(t) for t in F._memos}
    assert grown, "the translation filled no table"
    assert not [key for key in grown if id(tables[key]) not in owned]
    assert ("pastdra.after", "_afloc_memo") in grown

    # A new translation starts from empty memo tables; the context itself
    # derives nothing.
    TranslationContext(F.parse("cache_p"))
    assert not tables["pastdra.after", "_afloc_memo"]


def test_no_lru_cache():
    for mod in _modules():
        assert "lru_cache" not in inspect.getsource(mod), mod.__name__
        assert not [name for name, obj in vars(mod).items()
                    if callable(obj) and hasattr(obj, "cache_info")]
