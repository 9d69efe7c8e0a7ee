"""The names perfbench's tracer hooks exist, and the pipeline calls the fit
functions through them, so the benchmark's fit-stage records stay complete."""

import sys
from pathlib import Path

import pytest

import malfusion.corpus as C
import malfusion.evaluate as E
import malfusion.pipeline as P
import malfusion.substrate as S

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# learned feature -> the fit function malfusion.pipeline calls for it
FITS = {"cg_embedding": "train_cafc", "pv_trace": "train_pv",
        "cooc_feat": "train_cooc_cnn", "stmt_embed": "train_statement_encoder"}
TINY = P.PipelineConfig.desk(
    seed=0, cafc_epochs=1, cg_embed_dim=4, zigzag_len=10, pv_dim=8, pv_epochs=1,
    pv_infer_steps=1, cooc_epochs=1, stmt_seqlen=8, stmt_epochs=1, callseq_len=8,
    callseq_epochs=1, pe_vocab=20, api_vocab=20, stmt_token_vocab=30)


def _tiny():
    corpus = C.generate_corpus(C.CorpusSpec(family_count=3, samples_per_family=5, seed=4))
    return corpus, C.make_splits(corpus, holdout=(0.6, 0.2, 0.2), seed=4)


@pytest.fixture
def fit_calls(monkeypatch):
    counts = dict.fromkeys(FITS.values(), 0)
    for name in FITS.values():
        def counted(*args, _name=name, _fit=getattr(P, name), **kwargs):
            counts[_name] += 1
            return _fit(*args, **kwargs)
        monkeypatch.setattr(P, name, counted)
    return counts


def test_every_hooked_name_resolves():
    for owner, attr, *_ in tracing.hook_table():
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr}"


def test_extract_features_fits_each_model_once(fit_calls):
    corpus, split = _tiny()
    P.extract_features(corpus, split.train, split.validation, TINY)
    assert fit_calls == dict.fromkeys(FITS.values(), 1)


@pytest.mark.parametrize("parameter", sorted(E.SWEEP_FEATURES))
def test_sweep_fits_only_the_swept_model(fit_calls, parameter):
    corpus, split = _tiny()
    E.sweep(parameter, [2, 3], corpus, split, TINY)
    swept = FITS.get(E.SWEEP_FEATURES[parameter])
    assert fit_calls == {name: 2 * (name == swept) for name in FITS.values()}


def test_compare_encoders_fits_the_statement_encoder(fit_calls):
    corpus, split = _tiny()
    E.compare_encoders(corpus, [4, 6], split, TINY)
    assert fit_calls == {name: 2 * (name == "train_statement_encoder")
                         for name in FITS.values()}


def test_every_fit_validates_on_the_split_validation_rows(monkeypatch):
    corpus, split = _tiny()
    val_rows = []  # targets in each S.train call's validation data

    def counted(model, train_data, val_data, *args, _train=S.train, **kwargs):
        val_rows.append(len(val_data[1]))
        return _train(model, train_data, val_data, *args, **kwargs)

    monkeypatch.setattr(S, "train", counted)
    P.run_experiment(corpus, split, TINY)
    # CAFC, co-occurrence CNN, statement encoder, seven components, EF1's head
    assert val_rows == [len(split.validation)] * 11
