"""Shared fixtures: a small but complete pipeline run reused across test modules."""

import dataclasses

import pytest

from vlltr import pipeline
from vlltr.config import RunConfig


def small_config(**overrides):
    """A fast end-to-end configuration covering all three shot bands."""
    base = dict(
        seed=0,
        classes=6,
        n_max=120,
        n_min=5,
        test_per_class=20,
        d_img=8,
        embed_dim=8,
        vocab_size=96,
        sentences_per_class=12,
        prompt_count=8,
        pretrain_epochs=4,
        teacher_epochs=2,
        finetune_epochs=2,
        pretrain_batch=16,
        finetune_batch=16,
        anchor_m=8,
        probe_cap=20,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def mini_cfg():
    return small_config()


@pytest.fixture(scope="session")
def mini_run(mini_cfg, tmp_path_factory):
    """A completed pipeline run: (config, directory, eval report).

    Tests must treat the directory as read-only; anything mutating should
    copy the files it needs into its own tmp_path.
    """
    run_dir = tmp_path_factory.mktemp("mini_run")
    report = pipeline.run_all(mini_cfg, run_dir)
    return mini_cfg, run_dir, report


@pytest.fixture(scope="session")
def mini_model(mini_cfg, mini_run):
    from vlltr.encoders import CvlpModel

    _, run_dir, _ = mini_run
    return CvlpModel.from_checkpoint(
        run_dir / "student.ck",
        mini_cfg.d_img,
        mini_cfg.embed_dim,
        mini_cfg.vocab_size,
        max_tokens=mini_cfg.max_tokens,
    )


@pytest.fixture(scope="session")
def mini_data(mini_cfg, mini_run):
    from vlltr.data import load_corpus, load_dataset

    _, run_dir, _ = mini_run
    dataset = load_dataset(run_dir / "dataset.bin")
    corpus = load_corpus(run_dir / "corpus.tsv", mini_cfg.vocab_size,
                         mini_cfg.max_tokens)
    return dataset, corpus
