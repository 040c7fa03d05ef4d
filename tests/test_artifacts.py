import numpy as np
import pytest

from ncis import artifacts, cvpn, density, ood_classifier
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ArtifactError, ContractError
from ncis.outlier_sampling import OutlierSet


def test_cvpn_round_trip_identical_outputs(trained_model, tmp_path):
    path = tmp_path / "model.txt"
    artifacts.save_cvpn(trained_model, path)
    loaded = artifacts.load_cvpn(path)
    rng = np.random.default_rng(0)
    es = rng.uniform(-3, 3, (100, trained_model.dim))
    labels = rng.integers(0, trained_model.class_count, 100)
    assert np.array_equal(cvpn.cvpn_forward_batch(trained_model, es, labels),
                          cvpn.cvpn_forward_batch(loaded, es, labels))


def test_cvpn_write_read_write_byte_identical(trained_model, tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    artifacts.save_cvpn(trained_model, first)
    artifacts.save_cvpn(artifacts.load_cvpn(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_truncated_record_rejected(trained_model, tmp_path):
    path = tmp_path / "model.txt"
    artifacts.save_cvpn(trained_model, path)
    content = path.read_text().splitlines()
    path.write_text("\n".join(content[: len(content) // 2]) + "\n")
    with pytest.raises(ArtifactError):
        artifacts.load_cvpn(path)


def test_version_bump_rejected(trained_model, tmp_path):
    path = tmp_path / "model.txt"
    artifacts.save_cvpn(trained_model, path)
    lines = path.read_text().splitlines()
    lines[0] = "ncis-artifact cvpn 99"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match="schema_version"):
        artifacts.load_cvpn(path)


def test_wrong_kind_rejected(trained_model, tmp_path):
    path = tmp_path / "model.txt"
    artifacts.save_cvpn(trained_model, path)
    with pytest.raises(ArtifactError, match="kind"):
        artifacts.load_bank(path)


def test_missing_file_named():
    with pytest.raises(ArtifactError, match="missing"):
        artifacts.load_cvpn("/nonexistent/model.txt")


def test_bank_round_trip(toy_run, tmp_path):
    path = tmp_path / "bank.txt"
    artifacts.save_bank(toy_run.bank, path)
    loaded = artifacts.load_bank(path)
    assert loaded.lam == toy_run.bank.lam
    v = np.array([[0.1, -0.4]])
    for label in range(3):
        assert np.array_equal(density.log_density_v_batch(loaded, v, label),
                              density.log_density_v_batch(toy_run.bank, v, label))
    second = tmp_path / "bank2.txt"
    artifacts.save_bank(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_classifier_round_trip(toy_run, tmp_path):
    path = tmp_path / "clf.txt"
    artifacts.save_classifier(toy_run.clf_beta1, path)
    loaded = artifacts.load_classifier(path)
    xs = np.random.default_rng(1).uniform(-2, 2, (20, 2))
    assert np.array_equal(ood_classifier.ood_scores(loaded, xs),
                          ood_classifier.ood_scores(toy_run.clf_beta1, xs))


def test_embeddings_csv_round_trip(toy_bench, tmp_path):
    path = tmp_path / "emb.csv"
    artifacts.save_embeddings_csv(toy_bench.train, path)
    loaded = artifacts.load_embeddings_csv(path)
    assert np.array_equal(loaded.embeddings, toy_bench.train.embeddings)
    assert np.array_equal(loaded.labels, toy_bench.train.labels)
    assert loaded.class_count == 3


def test_points_csv_round_trip(toy_bench, tmp_path):
    path = tmp_path / "ood.csv"
    artifacts.save_points_csv(toy_bench.ood, path)
    assert np.array_equal(artifacts.load_points_csv(path), toy_bench.ood)


def test_outliers_csv_round_trip(toy_run, tmp_path):
    path = tmp_path / "outliers.csv"
    artifacts.save_outliers_csv(toy_run.outliers, path)
    loaded = artifacts.load_outliers_csv(path)
    assert np.array_equal(loaded.embeddings, toy_run.outliers.embeddings)
    assert np.array_equal(loaded.labels, toy_run.outliers.labels)
    assert np.array_equal(loaded.log_densities, toy_run.outliers.log_densities)
    assert loaded.lam == toy_run.outliers.lam
    assert loaded.q == toy_run.outliers.q
    assert loaded.seed == toy_run.outliers.seed
    assert np.array_equal(loaded.attempts, toy_run.outliers.attempts)


def test_metrics_csv_round_trip(tmp_path):
    rows = [("toy", "ncis", 0.125, 0.9875, 1.0)]
    path = tmp_path / "metrics.csv"
    artifacts.save_metrics_csv(rows, path)
    assert artifacts.load_metrics_csv(path) == rows


def test_loss_history_round_trip(tmp_path):
    hist = np.array([[0, 3.5], [1, 2.25], [2, 0.125]])
    path = tmp_path / "hist.csv"
    artifacts.save_loss_history_csv(hist, path)
    assert np.array_equal(artifacts.load_loss_history_csv(path), hist)


def test_corrupt_csv_rejected(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("not,a,real,artifact\n1,2,3,4\n")
    with pytest.raises(ArtifactError):
        artifacts.load_embeddings_csv(path)


def test_malformed_parameter_shape_rejected(trained_model, tmp_path):
    path = tmp_path / "model.txt"
    artifacts.save_cvpn(trained_model, path)
    text = path.read_text().replace("array class_embed 2 3 1", "array class_embed 2 3 2")
    path.write_text(text)
    with pytest.raises(ArtifactError, match="class_embed"):
        artifacts.load_cvpn(path)


@pytest.mark.parametrize("save, load, comment, bad", [
    ("embeddings", artifacts.load_embeddings_csv, "# class_count 2", "# class_count three"),
    ("outliers", artifacts.load_outliers_csv, "# seed 7", "# seed seven"),
    ("outliers", artifacts.load_outliers_csv, "# attempts 10 12", "# attempts 10 x"),
], ids=["class_count", "seed", "attempts"])
def test_malformed_csv_comment_rejected(tmp_path, save, load, comment, bad):
    path = tmp_path / f"{save}.csv"
    if save == "embeddings":
        artifacts.save_embeddings_csv(
            LabeledEmbeddingSet(np.zeros((2, 2)), np.array([0, 1]), 2), path)
    else:
        artifacts.save_outliers_csv(OutlierSet(np.zeros((2, 2)), np.array([0, 1]), np.zeros(2),
                                               1e-5, 0.05, 7, np.array([10, 12])), path)
    text = path.read_text()
    assert comment + "\n" in text
    path.write_text(text.replace(comment + "\n", bad + "\n"))
    with pytest.raises(ArtifactError, match=path.name):
        load(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_points_csv_rejects_non_finite(tmp_path, value):
    path = tmp_path / "ood.csv"
    artifacts.save_points_csv(np.array([[0.5, -1.0], [2.0, 0.25]]), path)
    path.write_text(path.read_text().replace("0.25", value))
    with pytest.raises(ArtifactError, match="ood.csv"):
        artifacts.load_points_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_embeddings_csv_rejects_non_finite(tmp_path, value):
    path = tmp_path / "embeddings_train.csv"
    artifacts.save_embeddings_csv(
        LabeledEmbeddingSet(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([0, 1]), 2), path)
    path.write_text(path.read_text().replace("0.25", value))
    with pytest.raises(ArtifactError, match="embeddings_train.csv"):
        artifacts.load_embeddings_csv(path)


@pytest.mark.parametrize("comment", ["# seed 7", "# attempts 10 12"], ids=["seed", "attempts"])
def test_outliers_csv_missing_comment_rejected(tmp_path, comment):
    path = tmp_path / "outliers.csv"
    artifacts.save_outliers_csv(OutlierSet(np.zeros((2, 2)), np.array([0, 1]), np.zeros(2),
                                           1e-5, 0.05, 7, np.array([10, 12])), path)
    text = path.read_text()
    assert comment + "\n" in text
    path.write_text(text.replace(comment + "\n", ""))
    field = comment.split()[1]
    with pytest.raises(ArtifactError, match=f"outliers.csv: missing field '{field}'"):
        artifacts.load_outliers_csv(path)


@pytest.mark.parametrize("field,written", [("e1", "0.25"), ("log_density", "-4.75")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_outliers_csv_rejects_non_finite(tmp_path, field, written, value):
    path = tmp_path / "outliers.csv"
    artifacts.save_outliers_csv(OutlierSet(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([0, 1]),
                                           np.array([-3.5, -4.75]), 1e-5, 0.05, 7,
                                           np.array([10, 12])), path)
    path.write_text(path.read_text().replace(written, value))
    with pytest.raises(ArtifactError, match="outliers.csv"):
        artifacts.load_outliers_csv(path)


@pytest.mark.parametrize("column,value", [("lambda", "abc"), ("q", "0.9")])
def test_outliers_csv_rejects_a_later_row_disagreeing_on_lambda_or_q(tmp_path, column, value):
    path = tmp_path / "outliers.csv"
    artifacts.save_outliers_csv(OutlierSet(np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([0, 1]),
                                           np.array([-3.5, -4.75]), 1e-5, 0.05, 7,
                                           np.array([10, 12])), path)
    head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
    cells = last.split(",")
    cells[-2 if column == "lambda" else -1] = value
    path.write_text(f"{head}\n{','.join(cells)}\n")
    with pytest.raises(ArtifactError, match="outliers.csv"):
        artifacts.load_outliers_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bank_rejects_non_finite_lam(toy_run, tmp_path, value):
    path = tmp_path / "bank.txt"
    artifacts.save_bank(toy_run.bank, path)
    text = path.read_text()
    assert "\nmeta lam 1e-05\n" in text
    path.write_text(text.replace("\nmeta lam 1e-05\n", f"\nmeta lam {value}\n"))
    with pytest.raises(ArtifactError, match="lam"):
        artifacts.load_bank(path)


def _saved_record(toy_run, tmp_path, kind):
    """A written cvpn, classifier or bank record and its loader."""
    path = tmp_path / f"{kind}.txt"
    if kind == "cvpn":
        artifacts.save_cvpn(toy_run.model, path)
        return path, artifacts.load_cvpn
    if kind == "bank":
        artifacts.save_bank(toy_run.bank, path)
        return path, artifacts.load_bank
    artifacts.save_classifier(toy_run.clf_beta1, path)
    return path, artifacts.load_classifier


@pytest.mark.parametrize("kind,value", [("cvpn", "nan"), ("classifier", "inf")])
def test_record_rejects_non_finite_parameter(toy_run, tmp_path, kind, value):
    path, load = _saved_record(toy_run, tmp_path, kind)
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("array "))
    name = lines[head].split()[1]
    lines[head + 1] = " ".join([value] + lines[head + 1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match=f"{kind}.txt: array '{name}'"):
        load(path)


@pytest.mark.parametrize("table", ["loss_history", "metrics"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_table_csv_rejects_non_finite(tmp_path, table, value):
    path = tmp_path / f"{table}.csv"
    if table == "loss_history":
        artifacts.save_loss_history_csv(np.array([[0, 3.5], [1, 0.25]]), path)
        load = artifacts.load_loss_history_csv
    else:
        artifacts.save_metrics_csv([("toy", "ncis", 0.125, 0.25, 1.0)], path)
        load = artifacts.load_metrics_csv
    path.write_text(path.read_text().replace("0.25", value))
    with pytest.raises(ArtifactError, match=f"{table}.csv"):
        load(path)


@pytest.mark.parametrize("kind", ["cvpn", "classifier", "bank"])
def test_unexpected_parameter_array_rejected(toy_run, tmp_path, kind):
    path, load = _saved_record(toy_run, tmp_path, kind)
    text = path.read_text()
    assert text.endswith("\nend\n")
    path.write_text(text[:-len("end\n")] + "array bogus 1 2\n1.0 2.0\nend\n")
    with pytest.raises(ArtifactError, match="bogus"):
        load(path)


@pytest.mark.parametrize("kind, line, bad, error", [
    ("bank", "meta class_count 3", "meta class_count -1", ArtifactError),
    ("bank", "meta dim 2", "meta dim 0", ArtifactError),
    ("classifier", "meta hidden_width 64", "meta hidden_width -1", ContractError),
    ("classifier", "meta phi_hidden 8", "meta phi_hidden 0", ContractError),
    ("cvpn", "meta num_blocks 4", "meta num_blocks 0", ContractError),
])
def test_out_of_range_meta_field_rejected(toy_run, tmp_path, kind, line, bad, error):
    path, load = _saved_record(toy_run, tmp_path, kind)
    text = path.read_text()
    assert f"\n{line}\n" in text
    path.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
    with pytest.raises(error):
        load(path)
