"""The quick demos run to the end.  03 (end-to-end training) and 04 (the
fusion ablation) take several seconds each and are left to a manual run:
python3 demos/03_train_segmenter.py and python3 demos/04_meta_embeddings.py.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_corpus_and_agreement",
    "02_crf_and_gradcheck",
    "05_retrieval_boosts",
    "06_sentence_baseline",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out  # each demo narrates what it shows
