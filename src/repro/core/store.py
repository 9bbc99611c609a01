"""Versioned on-disk campaign store: durable, resumable survey results.

Without a store, ``repro report`` re-simulates the whole campaign on every
invocation and a crash throws away every completed shard.  The store makes
campaign results durable at *cell* granularity — one JSON blob per
``(subject, family)`` — so an interrupted campaign resumes from where it
died and a finished one renders reports with zero simulation.

Layout of a store directory::

    DIR/
      campaign.json            # manifest: schema_version, config hash, meta
      cells/<subject_dir>/<family>.json

``<subject_dir>`` is the subject's tag passed through
:func:`subject_dirname` — device tags (``al``, ``dl5``) map to themselves,
pair tags (``al+be1.cgn-b``) are already filesystem-safe, and anything else
is escaped lossily with a campaign-level collision check (two distinct tags
may never share a directory; see :func:`ensure_distinct_dirnames`).

Every file carries ``schema_version`` and the campaign *config hash* — a
fingerprint of ``(profiles, seed, knobs, impairment, faults)``.  Opening a
store with a different hash (or schema) raises
:class:`IncompatibleStoreError` instead of silently mixing incomparable
measurements.

Schema generations: this build reads and writes one, :data:`SCHEMA_VERSION`.
A store of any other generation (the v3/v4 device-keyed engines' among
them) raises :class:`IncompatibleStoreError` naming its schema; the fix is
regenerating it with ``repro survey --out``.

Determinism contract: cells are written atomically (temp file + rename)
with canonical JSON (sorted keys, fixed indent, no timestamps), and a
cell's bytes are a pure function of the campaign config — so a campaign
interrupted at any point and resumed produces a store *byte-identical* to
an uninterrupted run, under any ``jobs=N``.  Cell payloads are encoded
and decoded by :mod:`repro.core.codec` from each family's ``cell_type``
(declared in the :mod:`experiment registry <repro.core.registry>`) and
are round-trip exact (tuples restored, floats preserved), extending the
``jobs=N ≡ jobs=1`` contract across process restarts.  A cell that no
longer decodes into its ``cell_type`` raises :class:`StoreError` naming
the file.

One decoder: :func:`decode_cells` turns canonical cell texts into a
:class:`~repro.core.survey.SurveyResults`.  :meth:`CampaignStore.load_results`
feeds it the store's files, and ``SurveyRunner.run`` the texts its shards
returned (plus the files of cells a resume reused), so what a campaign
returns is by construction what ``repro report --from`` renders.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core import registry
from repro.core.parallel import ShardError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.survey import SurveyResults
    from repro.devices.profile import DeviceProfile

__all__ = [
    "SCHEMA_VERSION",
    "StoreError",
    "IncompatibleStoreError",
    "campaign_fingerprint",
    "encode_cell",
    "decode_cells",
    "subject_dirname",
    "ensure_distinct_dirnames",
    "CampaignStore",
]

#: Bump when the store layout or any family's cell encoding changes shape.
#: v2: CGN knobs (``cgn_subscribers``/``cgn_block_size``) joined the
#: campaign fingerprint and the ``cgn_timeouts``/``cgn_exhaustion`` cell
#: codecs were added.
#: v3: adversarial knobs (``attack_rate``/``attack_duration``) joined the
#: campaign fingerprint, the three ``attack_*`` cell codecs were added,
#: and the NAT engine's refusal accounting went per-protocol.
#: v4: metro knobs (``metro_requests``/``metro_idle``/``metro_flap``)
#: joined the campaign fingerprint and the ``metro_load`` cell codec was
#: added.
#: v5: the campaign axis generalized from devices to subjects — cells
#: carry a ``subject`` key (device tags unchanged, pair tags ``a+b[...]``),
#: directories are sanitized tags, manifests list ``subjects``, and the
#: ``traversal_matrix`` codec was added.
SCHEMA_VERSION = 5


class StoreError(RuntimeError):
    """A campaign store could not be opened, read, or written."""


class IncompatibleStoreError(StoreError):
    """The store on disk was produced by an incomparable campaign."""


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: pathlib.Path, text: str) -> None:
    """Write-then-rename so a killed process never leaves a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


#: Characters a subject tag may contribute to its directory name verbatim.
_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.+-_"
)


def subject_dirname(tag: str) -> str:
    """Filesystem-safe directory name for one subject tag.

    Safe characters (alphanumerics and ``.+-_``) pass through — every
    catalog device tag and every pair tag maps to itself, which is what
    keeps device cells at the paths of the device-keyed engines.
    Anything else (separators, spaces, control bytes) becomes ``_``; the
    path-special all-dots names (``.``/``..``) are prefixed.  The escape is
    deliberately lossy, so the campaign engine guards distinctness with
    :func:`ensure_distinct_dirnames` before any cell is written.
    """
    if not tag:
        raise StoreError("subject tag must be non-empty")
    name = "".join(c if c in _SAFE_CHARS else "_" for c in tag)
    if set(name) <= {"."}:
        name = "_" + name
    return name


def ensure_distinct_dirnames(tags: Iterable[str]) -> None:
    """Raise when two distinct subject tags sanitize to one directory.

    The sanitizer is lossy (``a b`` and ``a_b`` both map to ``a_b``), so a
    campaign whose subject tags collide would silently overwrite cells.
    This check runs before any shard executes; the fix is renaming the
    offending profile tags.
    """
    seen: Dict[str, str] = {}
    for tag in tags:
        name = subject_dirname(tag)
        other = seen.setdefault(name, tag)
        if other != tag:
            raise StoreError(
                f"subject tags {other!r} and {tag!r} both sanitize to store "
                f"directory {name!r}; rename one of them — the store cannot "
                "keep both without silently overwriting cells"
            )


def campaign_fingerprint(
    profiles: Sequence["DeviceProfile"],
    seed: int,
    knobs: Mapping[str, Any],
    impairment: Any = None,
    faults: Iterable[Any] = (),
) -> str:
    """Content hash of everything that determines a campaign's measurements.

    Device profiles are hashed through their dataclass ``repr`` (stable and
    exhaustive over policy fields), chaos through the same ``describe()``
    strings the CLI prints.  Two campaigns with equal fingerprints produce
    field-for-field identical cells; unequal fingerprints are incomparable.
    """
    parts = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "profiles": [repr(profile) for profile in profiles],
        "knobs": {key: knobs[key] for key in sorted(knobs)},
        "impairment": impairment.describe() if impairment is not None else None,
        "faults": [fault.describe() for fault in faults],
    }
    blob = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def encode_cell(config_hash: str, subject: str, family: str, payload: Any) -> str:
    """One cell's canonical JSON text: the bytes a store keeps for it."""
    return _canonical_json({
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash,
        "subject": subject,
        "family": family,
        "payload": payload,
    })


def _cell_file(root: pathlib.Path, subject: str, family: str) -> pathlib.Path:
    return root / CampaignStore.CELL_DIR / subject_dirname(subject) / f"{family}.json"


def _payload(config_hash: str, subject: str, family: str, text: str, root: pathlib.Path) -> Any:
    """A cell text's payload, validating its schema, campaign and subject; errors name its file under ``root``.

    The stored identity must match the subject asked for — a cell that
    landed under the wrong directory (or a tag collision that slipped past
    the distinctness check) raises instead of resuming wrong.
    """
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreError(f"unreadable cell {_cell_file(root, subject, family)}: {exc}") from exc
    if blob.get("schema_version") != SCHEMA_VERSION:
        raise IncompatibleStoreError(
            f"cell {_cell_file(root, subject, family)} has schema_version={blob.get('schema_version')}, "
            f"expected {SCHEMA_VERSION}"
        )
    if blob.get("config_hash") != config_hash:
        raise IncompatibleStoreError(
            f"cell {_cell_file(root, subject, family)} belongs to campaign {blob.get('config_hash')}, "
            f"this store is {config_hash}"
        )
    if blob.get("subject") != subject:
        raise IncompatibleStoreError(
            f"cell {_cell_file(root, subject, family)} belongs to subject {blob.get('subject')!r}, "
            f"expected {subject!r} (corrupted cell or a sanitized-tag collision)"
        )
    return blob["payload"]


def decode_cells(
    config_hash: str,
    texts: Mapping[Tuple[str, str], str],
    subjects: Sequence[str],
    families: Optional[Iterable[str]] = None,
    root: Union[str, pathlib.Path] = "",
) -> "SurveyResults":
    """Decode canonical cell texts into a :class:`SurveyResults` — the one decoder of every campaign result.

    ``texts`` maps ``(subject tag, family)`` to a cell's text
    (:func:`encode_cell`); each is validated against ``config_hash``.
    Families insert in registry order and subjects in ``subjects`` order,
    so the container is the same whichever process, run or file a text
    came from.  ``families`` restricts the decode to those families and the
    families derived from them.  Errors name the cell's file under ``root``.
    """
    from repro.core.survey import SurveyResults

    root = pathlib.Path(root)
    wanted = set(families) if families is not None else None
    present = {family for _subject, family in texts}
    results = SurveyResults()
    for fam in registry.families():
        if fam.name not in present:
            continue
        if wanted is not None and fam.name not in wanted and fam.derived_from not in wanted:
            continue
        mapping: Dict[str, Any] = {}
        for subject in subjects:
            text = texts.get((subject, fam.name))
            if text is None:
                continue
            payload = _payload(config_hash, subject, fam.name, text, root)
            try:
                cell = fam.decode(payload)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise StoreError(
                    f"undecodable cell {_cell_file(root, subject, fam.name)}: {type(exc).__name__}: {exc}"
                ) from exc
            mapping[subject] = cell
        if mapping:
            results.set_family(fam.name, mapping)
    return results


class CampaignStore:
    """One campaign's durable result set, at ``(subject, family)`` granularity."""

    MANIFEST = "campaign.json"
    CELL_DIR = "cells"

    def __init__(self, root: Union[str, pathlib.Path], config_hash: str, meta: Optional[Dict] = None):
        self.root = pathlib.Path(root)
        self.config_hash = config_hash
        self.meta = dict(meta or {})

    # -- constructors --------------------------------------------------------

    @classmethod
    def create_or_open(
        cls,
        root: Union[str, pathlib.Path],
        config_hash: str,
        meta: Optional[Dict] = None,
    ) -> "CampaignStore":
        """Open a store for writing, creating the manifest on first use.

        An existing manifest must match both ``schema_version`` and the
        campaign config hash — cells from different configurations never
        mix in one directory.
        """
        root = pathlib.Path(root)
        manifest = root / cls.MANIFEST
        if manifest.exists():
            existing = cls.open(root)
            if existing.config_hash != config_hash:
                raise IncompatibleStoreError(
                    f"campaign store {root} was produced by a different campaign "
                    f"configuration (stored hash {existing.config_hash}, this run "
                    f"{config_hash}); use a fresh --out directory or rerun with "
                    "the original profiles/seed/knobs/chaos settings"
                )
            return existing
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": config_hash,
            **(meta or {}),
        }
        _atomic_write(manifest, _canonical_json(payload))
        return cls(root, config_hash, meta)

    @classmethod
    def open(cls, root: Union[str, pathlib.Path]) -> "CampaignStore":
        """Open an existing store (``repro report --from``); any other schema generation is refused."""
        root = pathlib.Path(root)
        manifest = root / cls.MANIFEST
        if not manifest.exists():
            raise StoreError(f"no campaign store at {root} (missing {cls.MANIFEST})")
        try:
            data = json.loads(manifest.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable campaign manifest {manifest}: {exc}") from exc
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise IncompatibleStoreError(
                f"campaign store {root} has schema_version={version}, this build reads "
                f"{SCHEMA_VERSION}; regenerate the store with `repro survey --out`"
            )
        meta = {k: v for k, v in data.items() if k not in ("schema_version", "config_hash")}
        return cls(root, data["config_hash"], meta)

    # -- cell I/O ------------------------------------------------------------

    def cell_path(self, subject: str, family: str) -> pathlib.Path:
        """Path of one ``(subject, family)`` cell file."""
        return _cell_file(self.root, subject, family)

    def completed_families(self, subject: str) -> Set[str]:
        """Family names with a durable cell for ``subject``."""
        subject_dir = self.root / self.CELL_DIR / subject_dirname(subject)
        if not subject_dir.is_dir():
            return set()
        return {path.stem for path in subject_dir.glob("*.json")}

    def subjects(self) -> List[str]:
        """Subjects with at least one cell, in manifest order when known.

        The manifest lists ``subjects`` (device tags first, then each
        non-device family's enumeration).  Cell directories not covered by
        the manifest sort to the back under their on-disk (sanitized) names.
        """
        listed = self.meta.get("subjects", [])
        cell_root = self.root / self.CELL_DIR
        present = {path.name for path in cell_root.iterdir() if path.is_dir()} if cell_root.is_dir() else set()
        ordered = [tag for tag in listed if subject_dirname(tag) in present]
        known = {subject_dirname(tag) for tag in listed}
        return ordered + sorted(present - known)

    def devices(self) -> List[str]:
        """Alias for :meth:`subjects` (report titles, tests)."""
        return self.subjects()

    def save_cell(self, subject: str, family: str, payload: Any) -> str:
        """Persist one encoded cell (atomically, canonical bytes); returns its text."""
        text = encode_cell(self.config_hash, subject, family, payload)
        _atomic_write(self.cell_path(subject, family), text)
        return text

    def read_cell(self, subject: str, family: str) -> str:
        """One cell file's text, as :meth:`save_cell` wrote it."""
        path = self.cell_path(subject, family)
        try:
            return path.read_text()
        except OSError as exc:
            raise StoreError(f"unreadable cell {path}: {exc}") from exc

    def load_cell(self, subject: str, family: str) -> Any:
        """Read one cell's encoded payload, validating version, hash and identity."""
        return _payload(self.config_hash, subject, family, self.read_cell(subject, family), self.root)

    # -- whole-campaign loading ---------------------------------------------

    def load_results(
        self,
        tags: Optional[Sequence[str]] = None,
        families: Optional[Sequence[str]] = None,
    ) -> "SurveyResults":
        """Decode the store into a :class:`SurveyResults` — zero simulation.

        Families insert in registry order and subjects in campaign order, so
        the loaded container is field-for-field equal to the results of the
        run that produced the cells.  Derived families (UDP-4) load like any
        other; their cells were persisted alongside the parent's.  Every
        cell the manifest plans but the store lacks becomes one of the
        results' errors (:meth:`_missing_cells`).
        """
        subjects = list(tags if tags is not None else self.subjects())
        wanted = set(families) if families is not None else None
        names = {fam.name for fam in registry.families()
                 if wanted is None or fam.name in wanted or fam.derived_from in wanted}
        # One directory listing per subject, not a stat per (subject, registered family).
        present = {subject: self.completed_families(subject) for subject in subjects}
        texts = {(subject, name): self.read_cell(subject, name)
                 for subject in subjects for name in present[subject] & names}
        results = decode_cells(self.config_hash, texts, subjects, families, self.root)
        results.errors = [error for error in self._missing_cells(present)
                          if (tags is None or error.tag in tags) and (wanted is None or error.family in wanted)]
        return results

    def _missing_cells(self, present: Dict[str, Set[str]]) -> List[ShardError]:
        """One :class:`ShardError` per ``(subject, family)`` the manifest plans and the store lacks.

        A device family is planned on each entry of the manifest's
        ``devices``, a non-device family on each of its other ``subjects``;
        device subjects come first, families in registry order.  A family
        counts as missing when its cell or a derived family's is absent, and
        is reported once, under its own name.  ``present`` caches each
        subject's :meth:`completed_families`; subjects missing from it are
        listed here.
        """
        devices = list(self.meta.get("devices", []))
        device_set = set(devices)
        others = [tag for tag in self.meta.get("subjects", []) if tag not in device_set]
        selected = set(self.meta.get("families", []))
        families = [fam for fam in registry.families() if fam.name in selected]
        planned = [(tag, fam) for tag in devices for fam in families if fam.subject_kind == "device"]
        planned += [(tag, fam) for fam in families if fam.subject_kind != "device" for tag in others]
        needed = {fam.name: {fam.name, *(derived.name for derived in registry.derived_families(fam.name))}
                  for fam in families}
        errors: List[ShardError] = []
        for tag, fam in planned:
            if tag not in present:
                present[tag] = self.completed_families(tag)
            if not needed[fam.name] <= present[tag]:
                errors.append(ShardError(tag, fam.name, "MissingCell",
                                         "the campaign manifest plans this cell but the store has none"))
        return errors
