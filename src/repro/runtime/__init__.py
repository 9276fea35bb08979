"""The mini-Ruby runtime: object model, interpreter, and dynamic checks.

This is the substrate RDL's "just-in-time" type checking runs on: programs
are *executed* to load class and method definitions (and annotations), and
then type checked.  The interpreter also executes the dynamic checks that
CompRDL inserts at calls to comp-type-annotated library methods (§2.4, §3.2)
and the subject apps' test suites for the overhead measurements (Table 2).
"""

from repro.runtime.objects import (
    RArray,
    RBlock,
    RClass,
    RException,
    RHash,
    RObject,
    RString,
    ruby_eq,
    ruby_inspect,
    ruby_to_s,
    ruby_truthy,
)
from repro.runtime.errors import Blame, RubyError
from repro.runtime.interp import Interp
from repro.runtime.member_compile import predicate_for
from repro.runtime.membership import value_has_type

__all__ = [
    "Blame",
    "Interp",
    "predicate_for",
    "RArray",
    "RBlock",
    "RClass",
    "RException",
    "RHash",
    "RObject",
    "RString",
    "RubyError",
    "ruby_eq",
    "ruby_inspect",
    "ruby_to_s",
    "ruby_truthy",
    "value_has_type",
]
