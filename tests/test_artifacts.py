import re

import numpy as np
import pytest

from ncis import artifacts, cvpn, density, ood_classifier, pipeline
from ncis.config import RunConfig
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ArtifactError, ContractError
from ncis.outlier_sampling import OutlierSet

from conftest import assert_same


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
    assert np.array_equal(ood_classifier.score_rows(loaded, xs).scores,
                          ood_classifier.score_rows(toy_run.clf_beta1, xs).scores)


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
    # a field given twice: neither line may silently win
    ("embeddings", artifacts.load_embeddings_csv, "# class_count 2",
     "# class_count 2\n# class_count 5"),
    ("outliers", artifacts.load_outliers_csv, "# seed 7", "# seed 7\n# seed 8"),
    ("outliers", artifacts.load_outliers_csv, "# attempts 10 12",
     "# attempts 10 12\n# attempts 10 13"),
], ids=["class_count", "seed", "attempts", "class_count-twice", "seed-twice", "attempts-twice"])
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


BEYOND_INT64 = "99999999999999999999"


def _two_row_csv(kind, path):
    if kind == "embeddings":
        artifacts.save_embeddings_csv(
            LabeledEmbeddingSet(np.zeros((2, 2)), np.array([0, 1]), 2), path)
    elif kind == "scores":
        artifacts.save_scores_csv((["0", "OOD"], [0.5, -1.0], [1.5, 2.0]), path)
    else:
        artifacts.save_outliers_csv(OutlierSet(np.zeros((2, 2)), np.array([0, 1]), np.zeros(2),
                                               1e-5, 0.05, 7, np.array([10, 12])), path)


@pytest.mark.parametrize("kind, load, cell", [
    ("embeddings", artifacts.load_embeddings_csv, 1),
    ("scores", artifacts.load_scores_csv, 0),
    ("outliers", artifacts.load_outliers_csv, 0),
    ("outliers", artifacts.load_outliers_csv, None),
], ids=["embeddings-label", "scores-index", "outliers-class", "attempts-comment"])
def test_integer_cell_beyond_int64_rejected(tmp_path, kind, load, cell):
    # an integer too large for int64 is a malformed file, not an OverflowError
    path = tmp_path / f"{kind}.csv"
    _two_row_csv(kind, path)
    head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
    if cell is None:
        head = head.replace("# attempts 10 12", f"# attempts 10 {BEYOND_INT64}")
    else:
        cells = last.split(",")
        cells[cell] = BEYOND_INT64
        last = ",".join(cells)
    path.write_text(f"{head}\n{last}\n")
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


@pytest.mark.parametrize("kind", ["cvpn", "bank"])
@pytest.mark.parametrize("section", ["meta", "array"])
def test_record_refuses_a_name_given_twice(toy_run, tmp_path, kind, section):
    # neither copy may silently win: a second copy is refused, naming it
    path, load = _saved_record(toy_run, tmp_path, kind)
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith(section + " "))
    parts = lines[head].split()
    name = parts[1]
    span = 1 if section == "meta" else 1 + (int(parts[3]) if parts[2] == "2" else 1)
    lines[-1:-1] = lines[head:head + span]  # before the end line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match=f"{kind}.txt: {section} '{re.escape(name)}'.*twice"):
        load(path)


@pytest.mark.parametrize("header, rows", [
    ("index,e0,e1", ["0,0.5", "1,2.0"]),
    ("index,e0", ["0,0.5,-1.0", "1,2.0,0.25"]),
    ("index", ["0", "1"]),
    ("index", []),
    ("index,e1,e0", ["0,0.5,-1.0"]),
    ("label,e0", ["0,0.5"]),
], ids=["rows-narrower", "rows-wider", "no-coordinates", "no-coordinates-no-rows",
        "misnamed-columns", "no-index"])
def test_points_csv_checks_its_header_and_row_width(tmp_path, header, rows):
    path = tmp_path / "ood.csv"
    path.write_text("\n".join(["# ncis-points v1", header] + rows) + "\n")
    with pytest.raises(ArtifactError, match="ood.csv"):
        artifacts.load_points_csv(path)


def test_bank_refuses_a_covariance_not_positive_definite_after_lam(toy_run, tmp_path):
    # cov + lam * I must factorize; a negative-definite cov1 names its array
    bank = toy_run.bank
    covs = bank.covariances.copy()
    covs[1] = -np.eye(bank.dim)
    path = tmp_path / "bank.txt"
    artifacts.save_bank(density.ClassGaussianBank(bank.lam, bank.means, covs, None,
                                                  bank.train_logdens), path)
    with pytest.raises(ArtifactError,
                       match=r"bank.txt: array 'cov1' plus lam \* I is not positive definite"):
        artifacts.load_bank(path)


@pytest.mark.parametrize("edit", ["descending", "empty", "matrix"])
def test_bank_refuses_train_logdens_not_an_ascending_vector(toy_run, tmp_path, edit):
    # outlier_sampling.acceptance_threshold reads its quantile off this order
    bank = toy_run.bank
    logdens = list(bank.train_logdens)
    logdens[1] = {"descending": logdens[1][::-1], "empty": logdens[1][:0],
                  "matrix": logdens[1][:4].reshape(2, 2)}[edit]
    path = tmp_path / "bank.txt"
    artifacts.save_bank(density.ClassGaussianBank(bank.lam, bank.means, bank.covariances, None,
                                                  logdens), path)
    with pytest.raises(ArtifactError,
                       match="bank.txt: array 'train_logdens1' must be a non-empty ascending vector"):
        artifacts.load_bank(path)


def test_scores_csv_round_trip(tmp_path):
    columns = (np.array(["2", "OOD"]), np.array([0.5, -3.0]), np.array([-1.25, 0.125]))
    path = tmp_path / "scores.csv"
    artifacts.save_scores_csv(columns, path)
    assert path.read_text().splitlines()[2:] == ["0,2,0.5,-1.25", "1,OOD,-3.0,0.125"]
    assert_same(artifacts.load_scores_csv(path), columns)


def test_scores_csv_refuses_rows_out_of_index_order(tmp_path):
    # the index column is implicit in the loaded columns, so a table whose
    # rows it does not number 0..N-1 would not be saved back byte for byte
    path = tmp_path / "scores.csv"
    artifacts.save_scores_csv((np.array(["0", "OOD"]), np.zeros(2), np.ones(2)), path)
    path.write_text(path.read_text().replace("\n1,OOD,", "\n2,OOD,"))
    with pytest.raises(ArtifactError, match="scores.csv: rows are not indexed 0..N-1 in order"):
        artifacts.load_scores_csv(path)


def joined_at_once(path, lines):
    # the writer before streaming: every line joined into one string, one write
    path.write_text("\n".join(lines) + "\n", newline="\n")


@pytest.mark.parametrize("chunk", [3, None])
def test_streamed_writers_match_a_single_write(toy_run, tmp_path, monkeypatch, chunk):
    # at 3 lines every file spans several chunks; at the default chunk the
    # scores table of the 1200 held-out and OOD rows spans two
    if chunk is not None:
        monkeypatch.setattr(artifacts, "CHUNK", chunk)
    metrics, scores = pipeline.stage_evaluate(RunConfig(), toy_run.clf_beta1,
                                              toy_run.bench.heldout, toy_run.bench.ood)
    objects = {"embeddings_train.csv": toy_run.bench.train, "ood_test.csv": toy_run.bench.ood,
               "cvpn.txt": toy_run.model, "loss_history.csv": toy_run.history,
               "bank.txt": toy_run.bank, "outliers.csv": toy_run.outliers,
               "classifier.txt": toy_run.clf_beta1, "metrics.csv": metrics * 2,
               "scores.csv": scores, "embeddings_heldout.csv": toy_run.bench.heldout}
    assert set(objects) == set(pipeline.FORMATS)
    crossed = []
    for name, obj in objects.items():
        save = getattr(artifacts, f"save_{pipeline.FORMATS[name]}")
        save(obj, tmp_path / name)
        with monkeypatch.context() as m:
            m.setattr(artifacts, "_write_lines", joined_at_once)
            save(obj, tmp_path / f"reference-{name}")
        data = (tmp_path / name).read_bytes()
        assert data == (tmp_path / f"reference-{name}").read_bytes(), name
        if data.count(b"\n") > artifacts.CHUNK:
            crossed.append(name)
    assert (crossed == list(objects)) if chunk else ("scores.csv" in crossed)


def test_refused_record_leaves_no_file(tmp_path):
    # the check runs before the file is opened: no file is made, and a file
    # already at the path keeps its bytes
    arrays = {"w": np.zeros(2), "t": np.zeros((2, 2, 2))}
    path, kept = tmp_path / "model.txt", tmp_path / "kept.txt"
    kept.write_text("earlier bytes\n")
    for target in (path, kept):
        with pytest.raises(ContractError, match="rank 3"):
            artifacts.write_record(target, "cvpn", {"dim": 2}, arrays)
    assert not path.exists()
    assert kept.read_text() == "earlier bytes\n"


def test_a_write_failing_part_way_removes_the_file(tmp_path):
    # the energies run out after the first chunk has been written
    path = tmp_path / "scores.csv"
    n = artifacts.CHUNK + 10
    columns = (np.full(n, "OOD"), np.full(n, 0.5), np.full(n - 1, -1.0))
    with pytest.raises(ValueError):
        artifacts.save_scores_csv(columns, path)
    assert not path.exists()
