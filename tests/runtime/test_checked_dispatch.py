"""Checked call sites on the compiled dispatch path.

Compiled call sites sit on parse-cached AST nodes that every universe in
the process shares, while each universe has a check table of its own.  A
site with a ``CheckSpec`` in the running universe's table runs the spec's
hooks around the site's inline-cached dispatch; every other site
dispatches exactly as with checks off.  These tests pin the three ways
that could go wrong: a spec leaking between universes through a shared
site, a site replaying a spec the check table no longer holds, and hooks
bound early enough that a rebinding of ``CheckSpec.before_call`` goes
unseen.  They also pin the ``checks.site.*`` counters.
"""

from __future__ import annotations

import pytest

from repro import CompRDL, Database, obs
from repro.comp import checks as checks_mod
from repro.comp.checks import CheckSpec
from repro.lang.parser import parse_program
from repro.obs.metrics import metrics_snapshot
from repro.runtime.errors import Blame

FINDER = """
class User < ActiveRecord::Base
end

class Finder
  type "() -> Object", typecheck: :finder
  def staged_users
    User.where(staged: true)
  end
end
"""

RUN = "Finder.new.staged_users"


def _universe(check: bool) -> CompRDL:
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load(FINDER)
    if check:
        report = rdl.check_all(":finder")
        assert report.ok(), report.summary()
    return rdl


def test_universes_sharing_an_ast_never_see_each_others_specs():
    checked = _universe(check=True)
    plain = _universe(check=False)
    # one parsed program, so one set of compiled call sites, for both
    assert parse_program(FINDER) is parse_program(FINDER)
    assert len(checked.interp.check_table) == 1
    assert plain.interp.check_table == {}
    # the schema moves under both universes: only the one whose check
    # table holds a spec for the `where` site may blame
    for rdl in (checked, plain):
        rdl.db.drop_column("users", "staged")
    for _ in range(2):  # both orders: a site must not remember a spec
        assert plain.run(RUN, checks=True) is not None
        with pytest.raises(Blame, match="comp type for User#where changed"):
            checked.run(RUN, checks=True)
    assert plain.run(RUN, checks=True) is not None


def test_site_uses_the_spec_recheck_dirty_installs(monkeypatch):
    rdl = _universe(check=True)
    ((nid, old_spec),) = rdl.interp.check_table.items()
    assert rdl.run(RUN, checks=True) is not None  # validated, site warm
    rdl.db.add_column("users", "karma", "integer")
    with pytest.raises(Blame, match="changed between type checking"):
        rdl.run(RUN, checks=True)
    report = rdl.recheck_dirty()
    assert report.ok(), report.summary()
    new_spec = rdl.interp.check_table[nid]
    assert new_spec is not old_spec
    ran = []
    original = CheckSpec.before_call

    def recording(spec, *args):
        ran.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(CheckSpec, "before_call", recording)
    assert rdl.run(RUN, checks=True) is not None  # no stale Blame
    assert ran == [new_spec]


def test_rebound_hooks_are_observed_by_compiled_dispatch(monkeypatch):
    rdl = _universe(check=True)
    assert rdl.run(RUN, checks=True) is not None  # warm the site caches
    calls = []
    before, after = CheckSpec.before_call, CheckSpec.after_call

    def traced_before(spec, interp, receiver, args, line):
        calls.append(("before", spec.method_desc))
        return before(spec, interp, receiver, args, line)

    def traced_after(spec, interp, receiver, args, result, line):
        calls.append(("after", spec.method_desc))
        return after(spec, interp, receiver, args, result, line)

    monkeypatch.setattr(CheckSpec, "before_call", traced_before)
    monkeypatch.setattr(CheckSpec, "after_call", traced_after)
    assert rdl.run(RUN, checks=True) is not None
    assert calls == [("before", "User#where"), ("after", "User#where")]
    calls.clear()
    assert rdl.run(RUN, checks=False) is not None
    assert calls == []


@pytest.fixture
def site_stats():
    was_enabled = obs.enabled()
    saved = list(checks_mod._SITE_STATS)
    checks_mod._SITE_STATS[:] = [0, 0, 0]
    yield checks_mod._SITE_STATS
    checks_mod._SITE_STATS[:] = saved
    obs.set_enabled(was_enabled)


def test_site_counters_move_only_while_observed(site_stats):
    rdl = _universe(check=True)
    obs.disable()
    rdl.run(RUN, checks=True)  # re-validates the comp types, uncounted
    assert site_stats == [0, 0, 0]
    obs.enable()
    # the schema generation has not moved: both runs are cache hits
    rdl.run(RUN, checks=True)
    rdl.run(RUN, checks=True)
    rdl.db.drop_column("users", "staged")
    with pytest.raises(Blame):
        rdl.run(RUN, checks=True)
    snap = metrics_snapshot()
    assert snap["checks.site.runs"] == 3
    assert snap["checks.site.cache_hits"] == 2
    assert snap["checks.site.blames"] == 1
