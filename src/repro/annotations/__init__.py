"""Comp type annotation sets for the core and DB libraries (Table 1).

The paper writes 586 comp type annotations across Array, Hash, String,
Integer, Float, ActiveRecord and Sequel, supported by 83 shared helper
methods.  This package reproduces that library: helpers (some written in
mini-Ruby, as in Fig. 1b; most native) plus one module of signature tables
per library.  ``run_installers`` loads everything into a universe and
returns per-library counts for the Table 1 harness; it runs once per
process, to build the library base (:mod:`repro.annotations.base`), and
``install_all`` copies that base into each new universe.
"""

from __future__ import annotations

from repro.annotations import helpers
from repro.annotations import corelib_object
from repro.annotations import corelib_array
from repro.annotations import corelib_hash
from repro.annotations import corelib_string
from repro.annotations import corelib_numeric
from repro.annotations import activerecord as ar_annotations
from repro.annotations import sequel as sequel_annotations
from repro.annotations.base import library_base


def install_all(rdl) -> dict[str, dict[str, int]]:
    """Install every annotation set into ``rdl``; returns Table 1
    accounting (see :func:`run_installers`).

    Copies the process-wide library base, which the installers build on
    the first call, so the library is installed once per process.
    """
    return library_base().install(rdl)


def run_installers(rdl) -> dict[str, dict[str, int]]:
    """Run every annotation installer; returns Table 1 accounting.

    The result maps library name to ``{"comp_defs": n, "loc": n}`` where
    ``loc`` counts lines of type-level code (comp expression code plus
    helper bodies attributed to the library).
    """
    helpers.install(rdl)
    stats: dict[str, dict[str, int]] = {}
    for name, module in [
        ("Array", corelib_array),
        ("Hash", corelib_hash),
        ("String", corelib_string),
        ("Integer", corelib_numeric),
        ("Float", corelib_numeric),
        ("Object", corelib_object),
        ("ActiveRecord", ar_annotations),
        ("Sequel", sequel_annotations),
    ]:
        if name == "Float":
            stats[name] = module.install_float(rdl)
        elif name == "Integer":
            stats[name] = module.install_integer(rdl)
        else:
            stats[name] = module.install(rdl)
    stats["_helpers"] = {"count": len(rdl.registry.helper_methods)}
    return stats
