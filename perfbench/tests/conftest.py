import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from workloads import Scale  # noqa: E402

# In the spirit of tests/conftest.py's small_config: every stage and all
# three shot bands, in well under a second per pipeline run.
TINY = Scale(
    base=dict(classes=6, n_max=120, n_min=5, test_per_class=20, d_img=8,
              embed_dim=8, vocab_size=96, sentences_per_class=12,
              prompt_count=8, pretrain_epochs=4, teacher_epochs=2,
              finetune_epochs=2, pretrain_batch=16, finetune_batch=16,
              anchor_m=8, probe_cap=20),
    short=dict(teacher_epochs=1, pretrain_epochs=2, finetune_epochs=1),
    stream_batches=3, min_batches=4)


@pytest.fixture
def tiny():
    return TINY
