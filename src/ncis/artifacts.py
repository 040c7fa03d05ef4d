"""Versioned text artifacts: model/bank/classifier records and CSV tables.

Every float is written with ``repr``, whose shortest round-trip form makes
write -> read -> write byte-identical.  Record files carry a kind tag and a
schema version in their first line; CSV files carry them in a leading comment
line.  Loaders validate structure eagerly and name the offending field.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .cvpn import CvpnModel, build_cvpn
from .data import LabeledEmbeddingSet
from .density import ClassGaussianBank
from .errors import ArtifactError, ContractError
from .ood_classifier import EnergyClassifier, build_energy_classifier
from .outlier_sampling import OutlierSet

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# generic record files
# ---------------------------------------------------------------------------

def write_record(path, kind, meta, arrays):
    lines = [f"ncis-artifact {kind} {SCHEMA_VERSION}"]
    for key, value in meta.items():
        lines.append(f"meta {key} {value}")
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim > 2:
            raise ContractError(f"array '{name}' has unsupported rank {arr.ndim}")
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"array {name} {arr.ndim}{' ' + shape if shape else ''}")
        lines.extend(" ".join(_fmt(v) for v in row) for row in np.atleast_2d(arr))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


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


def _checked_params(path, params, arrays):
    """The arrays named like ``params``, each of the same shape; any other
    array in the file is rejected."""
    for name, expected in params.items():
        if name not in arrays:
            raise ArtifactError(f"{path}: missing parameter array '{name}'")
        if arrays[name].shape != expected.shape:
            raise ArtifactError(
                f"{path}: parameter '{name}' has shape {arrays[name].shape}, expected {expected.shape}")
    extra = set(arrays) - set(params)
    if extra:
        raise ArtifactError(f"{path}: unexpected parameter array '{sorted(extra)[0]}'")
    return {name: arrays[name] for name in params}


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
    model.params = _checked_params(path, model.params, arrays)
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
    if not (np.isfinite(lam) and lam > 0):
        raise ArtifactError(f"{path}: meta field 'lam' must be finite and positive, got {lam!r}")
    if class_count < 1 or dim < 1:
        raise ArtifactError(f"{path}: meta fields 'class_count' and 'dim' must be >= 1, "
                            f"got {class_count} and {dim}")
    for c in range(class_count):
        for field, want in ((f"mean{c}", (dim,)), (f"cov{c}", (dim, dim)), (f"train_logdens{c}", None)):
            if field not in arrays:
                raise ArtifactError(f"{path}: missing array '{field}'")
            if want and arrays[field].shape != want:
                raise ArtifactError(f"{path}: array '{field}' has shape {arrays[field].shape}, expected {want}")
    extra = set(arrays) - {f"{kind}{c}" for c in range(class_count)
                           for kind in ("mean", "cov", "train_logdens")}
    if extra:
        raise ArtifactError(f"{path}: unexpected array '{sorted(extra)[0]}'")
    means = np.stack([arrays[f"mean{c}"] for c in range(class_count)])
    covs = np.stack([arrays[f"cov{c}"] for c in range(class_count)])
    chols = np.empty_like(covs)
    for c in range(class_count):
        try:
            chols[c] = np.linalg.cholesky(covs[c] + lam * np.eye(dim))
        except np.linalg.LinAlgError as err:
            raise ArtifactError(f"{path}: array 'cov{c}' is not positive semi-definite") from err
    logdens = [arrays[f"train_logdens{c}"] for c in range(class_count)]
    return ClassGaussianBank(lam, means, covs, chols, logdens)


def save_classifier(clf: EnergyClassifier, path):
    _save_model(clf, "classifier", path)


def load_classifier(path) -> EnergyClassifier:
    return _load_model(path, "classifier", EnergyClassifier, build_energy_classifier)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _write_csv(path, tag, comments, header, rows):
    lines = [f"# ncis-{tag} v{SCHEMA_VERSION}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _read_csv(path, tag):
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
    return comments, header, rows


def _coordinate_count(path, header, lead, kind):
    """D of a ``lead,e0,...,e{D-1}`` header; ArtifactError unless D >= 1."""
    dim = len(header) - len(lead)
    if dim < 1 or header != lead + [f"e{j}" for j in range(dim)]:
        raise ArtifactError(f"{path}: malformed {kind} header")
    return dim


def save_embeddings_csv(data: LabeledEmbeddingSet, path):
    header = ["index", "label"] + [f"e{j}" for j in range(data.dim)]
    rows = [[str(i), str(int(data.labels[i]))] + [_fmt(v) for v in data.embeddings[i]]
            for i in range(len(data))]
    _write_csv(path, "embeddings", [f"class_count {data.class_count}"], header, rows)


def load_embeddings_csv(path) -> LabeledEmbeddingSet:
    comments, header, rows = _read_csv(path, "embeddings")
    class_count = _field(path, _comment_fields(path, comments), "class_count")
    dim = _coordinate_count(path, header, ["index", "label"], "embeddings")
    try:
        labels = np.array([int(r[1]) for r in rows], dtype=np.int64)
        emb = np.array([[float(v) for v in r[2:]] for r in rows], dtype=np.float64)
    except ValueError as err:
        raise ArtifactError(f"{path}: malformed embeddings row") from err
    emb = emb.reshape(len(rows), dim)
    try:
        return LabeledEmbeddingSet(emb, labels, class_count)
    except ContractError as err:
        raise ArtifactError(f"{path}: {err}") from err


def save_points_csv(points, path):
    points = np.asarray(points, dtype=np.float64)
    header = ["index"] + [f"e{j}" for j in range(points.shape[1])]
    rows = [[str(i)] + [_fmt(v) for v in p] for i, p in enumerate(points)]
    _write_csv(path, "points", [], header, rows)


def load_points_csv(path) -> np.ndarray:
    _, header, rows = _read_csv(path, "points")
    dim = _coordinate_count(path, header, ["index"], "points")
    try:
        pts = np.array([[float(v) for v in r[1:]] for r in rows], dtype=np.float64)
    except ValueError as err:
        raise ArtifactError(f"{path}: malformed points row") from err
    pts = pts.reshape(len(rows), dim)
    if not np.isfinite(pts).all():
        raise ArtifactError(f"{path}: points contain non-finite values")
    return pts


def save_outliers_csv(outliers: OutlierSet, path):
    dim = outliers.dim
    header = ["class"] + [f"e{j}" for j in range(dim)] + ["log_density", "lambda", "q"]
    rows = []
    for i in range(len(outliers)):
        rows.append([str(int(outliers.labels[i]))]
                    + [_fmt(v) for v in outliers.embeddings[i]]
                    + [_fmt(outliers.log_densities[i]), _fmt(outliers.lam), _fmt(outliers.q)])
    comments = [f"seed {outliers.seed}",
                "attempts " + " ".join(str(int(a)) for a in outliers.attempts)]
    _write_csv(path, "outliers", comments, header, rows)


def load_outliers_csv(path) -> OutlierSet:
    comments, header, rows = _read_csv(path, "outliers")
    if len(header) < 4 or header[0] != "class" or header[-3:] != ["log_density", "lambda", "q"]:
        raise ArtifactError(f"{path}: malformed outliers header")
    dim = len(header) - 4
    fields = _comment_fields(path, comments)
    seed = _field(path, fields, "seed")
    attempts = _field(path, fields, "attempts",
                      lambda text: np.array([int(v) for v in text.split()], dtype=np.int64))
    try:
        labels = np.array([int(r[0]) for r in rows], dtype=np.int64)
        emb = np.array([[float(v) for v in r[1:1 + dim]] for r in rows], dtype=np.float64)
        lds = np.array([float(r[1 + dim]) for r in rows], dtype=np.float64)
        lam_q = [(float(r[2 + dim]), float(r[3 + dim])) for r in rows] or [(0.0, 0.0)]
    except ValueError as err:
        raise ArtifactError(f"{path}: malformed outliers row") from err
    emb = emb.reshape(len(rows), dim)
    if not (np.isfinite(emb).all() and np.isfinite(lds).all() and np.isfinite(lam_q).all()):
        raise ArtifactError(f"{path}: outliers contain non-finite values")
    lam, q = lam_q[0]
    if any(row != (lam, q) for row in lam_q):
        raise ArtifactError(f"{path}: outliers rows disagree on lambda or q")
    return OutlierSet(emb, labels, lds, lam, q, seed, attempts)


def save_metrics_csv(rows, path):
    """rows: list of (dataset, method, fpr95, auroc, accuracy)."""
    header = ["dataset", "method", "fpr95", "auroc", "accuracy"]
    body = [[str(d), str(m), _fmt(f), _fmt(a), _fmt(acc)] for d, m, f, a, acc in rows]
    _write_csv(path, "metrics", [], header, body)


def load_metrics_csv(path):
    _, header, rows = _read_csv(path, "metrics")
    if header != ["dataset", "method", "fpr95", "auroc", "accuracy"]:
        raise ArtifactError(f"{path}: malformed metrics header")
    try:
        metrics = [(r[0], r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows]
    except ValueError as err:
        raise ArtifactError(f"{path}: malformed metrics row") from err
    if not np.isfinite([row[2:] for row in metrics]).all():
        raise ArtifactError(f"{path}: metrics contain non-finite values")
    return metrics


def save_scores_csv(rows, path):
    """rows: list of (index, tag, score, energy)."""
    header = ["index", "tag", "score", "energy"]
    body = [[str(i), str(t), _fmt(s), _fmt(e)] for i, t, s, e in rows]
    _write_csv(path, "scores", [], header, body)


def save_loss_history_csv(history, path):
    header = ["iteration", "loss"]
    body = [[str(int(it)), _fmt(loss)] for it, loss in history]
    _write_csv(path, "loss-history", [], header, body)


def load_loss_history_csv(path) -> np.ndarray:
    _, header, rows = _read_csv(path, "loss-history")
    if header != ["iteration", "loss"]:
        raise ArtifactError(f"{path}: malformed loss-history header")
    try:
        history = np.array([[float(r[0]), float(r[1])] for r in rows], dtype=np.float64)
    except ValueError as err:
        raise ArtifactError(f"{path}: malformed loss-history row") from err
    if not np.isfinite(history).all():
        raise ArtifactError(f"{path}: loss history contains non-finite values")
    return history


def save_sweep_csv(rows, path):
    """rows: list of (lam, fpr95, auroc, accuracy, mean_invariant_magnitude)."""
    header = ["lambda", "fpr95", "auroc", "accuracy", "mean_invariant_magnitude"]
    body = [[_fmt(l), _fmt(f), _fmt(a), _fmt(acc), _fmt(m)] for l, f, a, acc, m in rows]
    _write_csv(path, "sweep", [], header, body)
