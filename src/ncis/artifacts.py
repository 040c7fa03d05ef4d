"""Versioned text artifacts: model/bank/classifier records and CSV tables.

Every float is written with ``repr``, whose shortest round-trip form makes
write -> read -> write byte-identical.  Record files carry a kind tag and a
schema version in their first line; CSV files carry them in a leading comment
line.  Each CSV table's columns are declared once, in ``CSV_TABLES``, from
which one writer builds the header and one reader checks it.  Loaders
validate structure eagerly and name the offending field or file.  Each
format a pipeline stage reads or writes has a ``save_<format>(obj, path)``
and a ``load_<format>(path)``, which the pipeline driver looks up by name.
A writer makes its lines one at a time and writes them ``CHUNK`` at a time,
so its memory does not grow with the table; its checks run before the file
is opened, and a write that fails part way removes the file.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import chain, islice
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .config import check_range
from .cvpn import CvpnModel, build_cvpn
from .data import LabeledEmbeddingSet
from .density import ClassGaussianBank, regularized_cholesky
from .errors import ArtifactError, ContractError, NumericError
from .ood_classifier import EnergyClassifier, build_energy_classifier
from .outlier_sampling import OutlierSet

SCHEMA_VERSION = 1
CHUNK = 1024  # lines joined into one write


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# generic record files
# ---------------------------------------------------------------------------

def _write_lines(path, lines):
    """Write each of ``lines`` (an iterable of str) and a newline to ``path``,
    ``CHUNK`` lines per write; the file is removed if a line fails."""
    lines = iter(lines)
    with open(path, "w", newline="\n") as f:
        try:
            while chunk := list(islice(lines, CHUNK)):
                f.write("\n".join(chunk) + "\n")
        except BaseException:
            f.close()
            Path(path).unlink(missing_ok=True)
            raise


def write_record(path, kind, meta, arrays):
    # checked before the file is opened, so a refused record leaves no file
    arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if arr.ndim > 2:
            raise ContractError(f"array '{name}' has unsupported rank {arr.ndim}")
    _write_lines(path, _record_lines(kind, meta, arrays))


def _record_lines(kind, meta, arrays):
    yield f"ncis-artifact {kind} {SCHEMA_VERSION}"
    for key, value in meta.items():
        yield f"meta {key} {value}"
    for name, arr in arrays.items():
        shape = " ".join(str(s) for s in arr.shape)
        yield f"array {name} {arr.ndim}{' ' + shape if shape else ''}"
        for row in np.atleast_2d(arr):
            yield " ".join(_fmt(v) for v in row)
    yield "end"


def read_record(path, kind):
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"missing artifact file: {path}")
    lines = path.read_text().splitlines()
    if not lines:
        raise ArtifactError(f"{path}: empty artifact file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "ncis-artifact":
        raise ArtifactError(f"{path}: malformed header line")
    if head[1] != kind:
        raise ArtifactError(f"{path}: expected kind '{kind}', found '{head[1]}'")
    if head[2] != str(SCHEMA_VERSION):
        raise ArtifactError(f"{path}: unsupported schema_version {head[2]} (expected {SCHEMA_VERSION})")

    meta = {}
    arrays = {}
    i = 1
    ended = False
    while i < len(lines):
        line = lines[i]
        if line == "end":
            ended = True
            i += 1
            break
        if line.startswith("meta "):
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                raise ArtifactError(f"{path}: malformed meta line {i + 1}")
            if parts[1] in meta:
                raise ArtifactError(f"{path}: meta '{parts[1]}' is given twice")
            meta[parts[1]] = parts[2]
            i += 1
            continue
        if line.startswith("array "):
            parts = line.split()
            if len(parts) < 3:
                raise ArtifactError(f"{path}: malformed array header at line {i + 1}")
            name = parts[1]
            if name in arrays:
                raise ArtifactError(f"{path}: array '{name}' is given twice")
            try:
                ndim = int(parts[2])
                shape = tuple(int(s) for s in parts[3:])
            except ValueError as err:
                raise ArtifactError(f"{path}: bad shape for array '{name}'") from err
            if len(shape) != ndim:
                raise ArtifactError(f"{path}: rank/shape mismatch for array '{name}'")
            rows = shape[0] if ndim == 2 else 1
            want = shape[-1] if ndim else 1
            values = []
            for r in range(rows):
                i += 1
                if i >= len(lines) or lines[i].startswith(("array ", "meta ")) or lines[i] == "end":
                    raise ArtifactError(f"{path}: array '{name}' is truncated")
                row = lines[i].split()
                if len(row) != want:
                    raise ArtifactError(
                        f"{path}: array '{name}' row {r} has {len(row)} values, expected {want}")
                try:
                    values.append([float(v) for v in row])
                except ValueError as err:
                    raise ArtifactError(f"{path}: array '{name}' has a non-numeric value") from err
            arrays[name] = np.asarray(values, dtype=np.float64).reshape(shape)
            if not np.isfinite(arrays[name]).all():
                raise ArtifactError(f"{path}: array '{name}' has non-finite values")
            i += 1
            continue
        raise ArtifactError(f"{path}: unrecognized line {i + 1}: {line!r}")
    if not ended:
        raise ArtifactError(f"{path}: truncated artifact (missing end marker)")
    return meta, arrays


def _field(path, fields, key, cast=int):
    """``cast(fields[key])``, where ``fields`` holds the meta lines of a record
    or the comment lines of a CSV; raises ArtifactError naming the file when
    the field is missing or malformed."""
    try:
        return cast(fields[key])
    except KeyError as err:
        raise ArtifactError(f"{path}: missing field '{key}'") from err
    except ValueError as err:
        raise ArtifactError(f"{path}: field '{key}' is malformed: {fields[key]!r}") from err


def _comment_fields(path, comments):
    """{key: value} of a CSV's "key value" comment lines; a stripped line with
    a space has both parts.  A key on two lines raises ArtifactError."""
    fields = {}
    for key, value in (c.split(maxsplit=1) for c in comments if " " in c):
        if key in fields:
            raise ArtifactError(f"{path}: field '{key}' is given twice")
        fields[key] = value
    return fields


def _checked_params(path, shapes, arrays):
    """The arrays named in ``shapes``, in its order, each of its shape there
    (any shape for None); any other array in the file is rejected."""
    for name, expected in shapes.items():
        if name not in arrays:
            raise ArtifactError(f"{path}: missing array '{name}'")
        if expected is not None and arrays[name].shape != expected:
            raise ArtifactError(
                f"{path}: array '{name}' has shape {arrays[name].shape}, expected {expected}")
    extra = set(arrays) - set(shapes)
    if extra:
        raise ArtifactError(f"{path}: unexpected array '{sorted(extra)[0]}'")
    return {name: arrays[name] for name in shapes}


# ---------------------------------------------------------------------------
# model / bank / classifier records
# ---------------------------------------------------------------------------

def _meta_fields(cls):
    """(name, type) of each field of a model dataclass but its params, in
    meta-line order."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls) if f.name != "params"]


def _save_model(model, kind, path):
    meta = {name: _fmt(getattr(model, name)) if cast is float else getattr(model, name)
            for name, cast in _meta_fields(type(model))}
    write_record(path, kind, meta, model.params)


def _load_model(path, kind, cls, build):
    """``build(**meta)`` of the record's meta fields, its parameters then
    replaced by the record's arrays."""
    meta, arrays = read_record(path, kind)
    model = build(**{name: _field(path, meta, name, cast) for name, cast in _meta_fields(cls)})
    model.params = _checked_params(path, {name: p.shape for name, p in model.params.items()},
                                   arrays)
    return model


def save_cvpn(model: CvpnModel, path):
    _save_model(model, "cvpn", path)


def load_cvpn(path) -> CvpnModel:
    return _load_model(path, "cvpn", CvpnModel, build_cvpn)


def save_bank(bank: ClassGaussianBank, path):
    meta = {"lam": _fmt(bank.lam), "class_count": bank.class_count, "dim": bank.dim}
    arrays = {}
    for c in range(bank.class_count):
        arrays[f"mean{c}"] = bank.means[c]
        arrays[f"cov{c}"] = bank.covariances[c]
        arrays[f"train_logdens{c}"] = bank.train_logdens[c]
    write_record(path, "bank", meta, arrays)


def load_bank(path) -> ClassGaussianBank:
    meta, arrays = read_record(path, "bank")
    lam = _field(path, meta, "lam", float)
    class_count = _field(path, meta, "class_count")
    dim = _field(path, meta, "dim")
    try:
        check_range("density.lambda", lam)
    except ContractError as err:
        raise ArtifactError(f"{path}: meta field 'lam': {err}") from err
    if class_count < 1 or dim < 1:
        raise ArtifactError(f"{path}: meta fields 'class_count' and 'dim' must be >= 1, "
                            f"got {class_count} and {dim}")
    arrays = _checked_params(path, {
        f"{kind}{c}": want for c in range(class_count)
        for kind, want in (("mean", (dim,)), ("cov", (dim, dim)), ("train_logdens", None))}, arrays)
    means = np.stack([arrays[f"mean{c}"] for c in range(class_count)])
    covs = np.stack([arrays[f"cov{c}"] for c in range(class_count)])
    try:
        chols = np.stack([regularized_cholesky(covs[c], lam, f"array 'cov{c}'")
                          for c in range(class_count)])
    except NumericError as err:
        raise ArtifactError(f"{path}: {err}") from err
    logdens = [arrays[f"train_logdens{c}"] for c in range(class_count)]
    for c, values in enumerate(logdens):
        # the acceptance threshold reads its quantile off this order
        if values.ndim != 1 or not values.size or np.any(values[1:] < values[:-1]):
            raise ArtifactError(
                f"{path}: array 'train_logdens{c}' must be a non-empty ascending vector")
    return ClassGaussianBank(lam, means, covs, chols, logdens)


def save_classifier(clf: EnergyClassifier, path):
    _save_model(clf, "classifier", path)


def load_classifier(path) -> EnergyClassifier:
    return _load_model(path, "classifier", EnergyClassifier, build_energy_classifier)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

# Each table's columns, by the tag of its "# ncis-<tag> v1" line: those before
# its e0..e{D-1} coordinates and those after them, the latter None for a
# table with no coordinates.  Saver and loader both build the header here.
CSV_TABLES = {
    "embeddings": (["index", "label"], []),
    "points": (["index"], []),
    "outliers": (["class"], ["log_density", "lambda", "q"]),
    "loss-history": (["iteration", "loss"], None),
    "metrics": (["dataset", "method", "fpr95", "auroc", "accuracy"], None),
    "scores": (["index", "tag", "score", "energy"], None),
    "sweep": (["lambda", "fpr95", "auroc", "accuracy", "mean_invariant_magnitude"], None),
}


def _csv_header(tag, dim):
    lead, tail = CSV_TABLES[tag]
    return lead if tail is None else lead + [f"e{j}" for j in range(dim)] + tail


def _write_csv(path, tag, rows, dim=0, comments=()):
    """Write a ``tag`` table: its tag line, a line per comment, the header and
    one line per row of ``rows``, an iterable of lists of cells."""
    head = [f"# ncis-{tag} v{SCHEMA_VERSION}", *(f"# {c}" for c in comments),
            ",".join(_csv_header(tag, dim))]
    _write_lines(path, chain(head, (",".join(row) for row in rows)))


def _read_csv(path, tag):
    """(comment fields, D, rows) of a ``tag`` table, its header checked
    against ``CSV_TABLES``; D is 0 for a table with no coordinates and at
    least 1 otherwise, and rows hold the cells as text."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"missing artifact file: {path}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(f"# ncis-{tag} v"):
        raise ArtifactError(f"{path}: not a ncis-{tag} CSV")
    if lines[0] != f"# ncis-{tag} v{SCHEMA_VERSION}":
        raise ArtifactError(f"{path}: unsupported schema_version in '{lines[0]}'")
    comments = []
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        comments.append(lines[i][1:].strip())
        i += 1
    if i >= len(lines):
        raise ArtifactError(f"{path}: missing CSV header row")
    header = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:] if line]
    if any(len(row) != len(header) for row in rows):
        raise ArtifactError(f"{path}: row width does not match header")
    lead, tail = CSV_TABLES[tag]
    dim = 0 if tail is None else len(header) - len(lead) - len(tail)
    if (tail is not None and dim < 1) or header != _csv_header(tag, dim):
        raise ArtifactError(f"{path}: malformed {tag} header")
    return _comment_fields(path, comments), dim, rows


def _columns(path, rows, start, stop, dtype=np.float64):
    """Columns ``start:stop`` of ``rows`` as an (N, stop - start) array;
    ArtifactError naming the file for a malformed or non-finite value."""
    cast = int if dtype == np.int64 else float
    try:
        values = np.array([[cast(v) for v in r[start:stop]] for r in rows], dtype=dtype)
    except ValueError as err:
        raise ArtifactError(f"{path}: malformed row") from err
    values = values.reshape(len(rows), stop - start)
    if not np.isfinite(values).all():
        raise ArtifactError(f"{path}: non-finite values")
    return values


def save_embeddings_csv(data: LabeledEmbeddingSet, path):
    rows = ([str(i), str(int(data.labels[i]))] + [_fmt(v) for v in data.embeddings[i]]
            for i in range(len(data)))
    _write_csv(path, "embeddings", rows, data.dim, [f"class_count {data.class_count}"])


def load_embeddings_csv(path) -> LabeledEmbeddingSet:
    fields, dim, rows = _read_csv(path, "embeddings")
    class_count = _field(path, fields, "class_count")
    labels = _columns(path, rows, 1, 2, np.int64)[:, 0]
    try:
        return LabeledEmbeddingSet(_columns(path, rows, 2, 2 + dim), labels, class_count)
    except ContractError as err:
        raise ArtifactError(f"{path}: {err}") from err


def save_points_csv(points, path):
    points = np.asarray(points, dtype=np.float64)
    rows = ([str(i)] + [_fmt(v) for v in p] for i, p in enumerate(points))
    _write_csv(path, "points", rows, points.shape[1])


def load_points_csv(path) -> np.ndarray:
    _, dim, rows = _read_csv(path, "points")
    return _columns(path, rows, 1, 1 + dim)


def save_outliers_csv(outliers: OutlierSet, path):
    rows = ([str(int(outliers.labels[i]))]
            + [_fmt(v) for v in outliers.embeddings[i]]
            + [_fmt(outliers.log_densities[i]), _fmt(outliers.lam), _fmt(outliers.q)]
            for i in range(len(outliers)))
    comments = [f"seed {outliers.seed}",
                "attempts " + " ".join(str(int(a)) for a in outliers.attempts)]
    _write_csv(path, "outliers", rows, outliers.dim, comments)


def load_outliers_csv(path) -> OutlierSet:
    fields, dim, rows = _read_csv(path, "outliers")
    seed = _field(path, fields, "seed")
    attempts = _field(path, fields, "attempts",
                      lambda text: np.array([int(v) for v in text.split()], dtype=np.int64))
    labels = _columns(path, rows, 0, 1, np.int64)[:, 0]
    emb = _columns(path, rows, 1, 1 + dim)
    lds = _columns(path, rows, 1 + dim, 2 + dim)[:, 0]
    lam_q = _columns(path, rows, 2 + dim, 4 + dim)
    lam, q = (float(v) for v in lam_q[0]) if rows else (0.0, 0.0)
    if (lam_q != (lam, q)).any():
        raise ArtifactError(f"{path}: outliers rows disagree on lambda or q")
    return OutlierSet(emb, labels, lds, lam, q, seed, attempts)


def save_metrics_csv(rows, path):
    """rows: list of (dataset, method, fpr95, auroc, accuracy)."""
    body = ([str(d), str(m), _fmt(f), _fmt(a), _fmt(acc)] for d, m, f, a, acc in rows)
    _write_csv(path, "metrics", body)


def load_metrics_csv(path):
    _, _, rows = _read_csv(path, "metrics")
    values = _columns(path, rows, 2, 5)
    return [(r[0], r[1], *(float(v) for v in row)) for r, row in zip(rows, values)]


def save_scores_csv(columns, path):
    """columns: (tags, scores, energies), each with one entry per row; the
    rows are indexed from 0."""
    body = ([str(i), str(t), _fmt(s), _fmt(e)]
            for i, (t, s, e) in enumerate(zip(*columns, strict=True)))
    _write_csv(path, "scores", body)


def load_scores_csv(path):
    """(tags, scores, energies) of a scores table whose rows are indexed 0..N-1."""
    _, _, rows = _read_csv(path, "scores")
    if not np.array_equal(_columns(path, rows, 0, 1, np.int64)[:, 0], np.arange(len(rows))):
        raise ArtifactError(f"{path}: rows are not indexed 0..N-1 in order")
    values = _columns(path, rows, 2, 4)
    return np.array([r[1] for r in rows], dtype=str), values[:, 0], values[:, 1]


def save_loss_history_csv(history, path):
    body = ([str(int(it)), _fmt(loss)] for it, loss in history)
    _write_csv(path, "loss-history", body)


def load_loss_history_csv(path) -> np.ndarray:
    _, _, rows = _read_csv(path, "loss-history")
    return _columns(path, rows, 0, 2)


def save_sweep_csv(rows, path):
    """rows: list of (lam, fpr95, auroc, accuracy, mean_invariant_magnitude)."""
    body = ([_fmt(l), _fmt(f), _fmt(a), _fmt(acc), _fmt(m)] for l, f, a, acc, m in rows)
    _write_csv(path, "sweep", body)
