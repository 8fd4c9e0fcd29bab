"""Golden transcripts: every invocation in ``golden.json`` answers with
the pinned exit code and the pinned bytes on stdout and stderr (and in
the file it writes), replayed in process through ``hfhat.cli.run``.
``make_golden.py`` writes the file and lists what it covers."""

import json

from make_golden import GOLDEN, transcripts


def test_golden_transcripts_replay(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    replayed = transcripts(tmp_path)
    assert [entry["argv"] for entry in replayed] == [entry["argv"] for entry in golden]
    moved = [entry["argv"] for entry, pinned in zip(replayed, golden) if entry != pinned]
    assert not moved, f"{len(moved)} transcripts moved, the first: {moved[:3]}"
    assert {entry["exit"] for entry in golden} == {0, 1, 2, 3, 4}
