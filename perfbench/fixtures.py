"""Seed-independent inputs the workloads share, built once per checkout.

* ``corpus153.json`` — all 153 paper-scale databases (no pairs): what
  the serving workloads' server holds;
* ``wide_questions.json`` — every distinct (NL, SQL) question of those
  databases with its source database (``pipeline_wide`` draws from it);
* ``base/`` — the streamed paper-scale build of the first 24 databases
  (the ``train`` workload's slice and the serving model's training data);
* ``model.npz`` — a small attention seq2vis trained on ``base/``;
* ``narrow_questions.json`` — distinct nvBench questions over 8 of those
  databases, from a build with 150 (NL, SQL) inputs per database
  (``translate_narrow`` sends each at most once per run).

They live under ``.perfbench_cache/fixtures-v<VERSION>/``, keyed on this
harness's ``VERSION`` only: a change to the program does not rebuild
them in a checkout that has them.  They are built by the program under
test, so a commit that changes synthesis or training builds different
ones; ``check`` compares their content digest with the one recorded in
``expected.json`` and the run is marked incorrect when they differ
(the recorded answers assume the recorded fixtures).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

import common

VERSION = 3
BASE_DATABASES = 24
NARROW_DATABASES = 8
NARROW_PAIRS_PER_DB = 150


#: files whose bytes make up the fixtures' content digest (plus ``base/``)
_DIGESTED = ("corpus153.json", "wide_questions.json", "narrow_questions.json",
             "model.npz")


def fixture_dir() -> Path:
    return common.CACHE / f"fixtures-v{VERSION}"


def ensure() -> Path:
    """The fixture directory, built first if missing."""
    target = fixture_dir()
    if (target / "done").is_file():
        return target
    started = time.perf_counter()
    staging = common.scratch_dir("fixtures")
    try:
        _build(staging)
        (staging / "digest.json").write_text(json.dumps(content_digest(staging)))
        (staging / "done").write_text("ok\n")
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"built fixtures in {time.perf_counter() - started:.1f}s: {target}")
    return target


def _build(out: Path) -> None:
    from repro.core.nvbench import build_nvbench, paper_scale_config
    from repro.eval.harness import ExperimentConfig, build_model, make_datasets
    from repro.neural.data import MAX_NL_TOKENS
    from repro.neural.persist import save_model
    from repro.neural.trainer import TrainConfig, train_model
    from repro.nlp.tokenize import tokenize_nl
    from repro.spider.corpus import (
        PAPER_SCALE_CORPUS,
        SpiderCorpus,
        generate_corpus_unit,
        save_corpus,
    )

    corpus = SpiderCorpus()
    questions, seen = [], set()
    for index in range(PAPER_SCALE_CORPUS.num_databases):
        database, pairs = generate_corpus_unit(PAPER_SCALE_CORPUS, index)
        corpus.databases[database.name] = database
        for pair in pairs:
            if pair.nl not in seen:
                seen.add(pair.nl)
                questions.append({"question": pair.nl, "db": pair.db_name})
    save_corpus(corpus, str(out / "corpus153.json"))
    (out / "wide_questions.json").write_text(json.dumps(questions))

    config = paper_scale_config()
    bench = build_nvbench(config=config, out=str(out / "base"), stream=True,
                          max_databases=BASE_DATABASES)
    experiment = ExperimentConfig(
        embed_dim=48, hidden_dim=64,
        train=TrainConfig(epochs=6, batch_size=24, lr=5e-3, patience=3),
    )
    train_set, val_set, _ = make_datasets(bench, experiment)
    model = build_model("attention", train_set, experiment)
    result = train_model(model, train_set, val_set, experiment.train)
    save_model(model, train_set.in_vocab, train_set.out_vocab,
               str(out / "model.npz"), optimizer=result.optimizer)

    narrow_config = replace(
        config,
        corpus=replace(PAPER_SCALE_CORPUS, pairs_per_database=NARROW_PAIRS_PER_DB),
    )
    narrow = build_nvbench(config=narrow_config, out=str(out / "narrow"),
                           stream=True, max_databases=NARROW_DATABASES)
    by_db, seen = {}, set()
    for pair in narrow.pairs:
        # the encoder cache keys on the model's input tokens, so two
        # questions that tokenize alike are one question to the server
        key = (pair.db_name, tuple(tokenize_nl(pair.nl)[:MAX_NL_TOKENS]))
        if key not in seen:
            seen.add(key)
            by_db.setdefault(pair.db_name, []).append(pair.nl)
    missing = set(by_db) - set(corpus.databases)
    if missing:
        raise RuntimeError(f"narrow databases not in the served corpus: {missing}")
    (out / "narrow_questions.json").write_text(json.dumps(by_db))
    shutil.rmtree(out / "narrow")


def content_digest(fixtures: Path) -> dict:
    """sha256 of each fixture file and of the base build's shards."""
    digest = {name: hashlib.sha256((fixtures / name).read_bytes()).hexdigest()
              for name in _DIGESTED}
    digest["base"] = common.tree_digest(fixtures / "base", ["shards", "corpus"])
    return digest


def check(fixtures: Path) -> dict:
    """The fixtures' digest against the recorded one (run details)."""
    actual = json.loads((fixtures / "digest.json").read_text())
    recorded = common.load_expected().get("fixtures") or {}
    differs = sorted(k for k in actual if actual[k] != recorded.get(k))
    return {"fixtures_match": not differs, "fixtures_differ": differs}


def load_json(fixtures: Path, name: str):
    return json.loads((fixtures / name).read_text())
