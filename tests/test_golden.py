"""The ``reproduce`` presets are byte-identical to the recorded goldens.

All 11 presets are regenerated in-process at ``--paths 500`` and the
default seed, through the CLI, and compared byte for byte with
``tests/golden/presets``.  A mismatch names every file and column that
moved, with the largest absolute and relative difference.  A change that
moves outputs on purpose re-records them with ``tests/golden_outputs.py``.
"""

from golden_outputs import compare_presets, version_note, write_presets


def test_presets_match_the_golden_files(tmp_path):
    write_presets(tmp_path)
    report = compare_presets(tmp_path)
    assert not report, "\n".join(report + version_note())
