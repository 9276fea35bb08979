"""``python -m repro.fuzz --json``: the result record CI gates on."""

import json

from repro.fuzz.__main__ import main


def test_json_record_reports_warm_remote(tmp_path):
    out = tmp_path / "fuzz.json"
    assert main(["--seed", "0", "--steps", "5", "--profile", "migrations",
                 "--json", str(out)]) == 0
    [entry] = json.loads(out.read_text())["results"]
    assert entry["ok"] is True
    # no warm twin in this profile, so no round can have run remotely
    assert entry["warm_remote"] == 0
