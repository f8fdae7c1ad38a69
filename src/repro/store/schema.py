"""Schema for the experiment store.

Design notes: graphs and state series are stored as compressed npz blobs
(they are opaque to SQL queries), while run results are first-class rows so
``EXPERIMENTS.md`` tables can be regenerated with plain SQL.

Versioning: ``DDL`` holds the v1 base schema; later versions live in
``MIGRATIONS`` (version -> idempotent SQL script) and are applied in order
on open, so a store created by any earlier release upgrades in place. New
databases run the same path (base DDL, then every migration), keeping one
code path for both.

v2 adds ``corpora``: appendable state collections with their incrementally
extended pairwise SND matrices (:class:`repro.snd.engine.Corpus`), so the
§9 metric-space workloads can persist and resume growing corpora instead
of recomputing ``N·(N-1)/2`` pairs per run.

v3 adds ``transition_cache``: spilled entries of the in-memory
:class:`repro.snd.cache.TransitionCache` (one solved SND value keyed by
the ordered state-fingerprint pair), so a restarted server warms its
cache from the store and answers a previously-served trace with zero
fresh solves.

v4 keys those rows by 32-byte state digests (the SHA-256 of the
opinion-vector bytes, :meth:`repro.snd.cache.GroundCostCache.fingerprint`)
instead of the raw bytes — content keys, valid across processes. Its
migration empties ``transition_cache``: a v3 row's raw key can never
match a digest again.
"""

SCHEMA_VERSION = 4

DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS graphs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    name       TEXT NOT NULL UNIQUE,
    n_nodes    INTEGER NOT NULL,
    n_edges    INTEGER NOT NULL,
    blob       BLOB NOT NULL,
    created_at TEXT NOT NULL DEFAULT (datetime('now'))
);

CREATE TABLE IF NOT EXISTS state_series (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    graph_id   INTEGER NOT NULL REFERENCES graphs(id) ON DELETE CASCADE,
    name       TEXT NOT NULL,
    n_states   INTEGER NOT NULL,
    blob       BLOB NOT NULL,
    created_at TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (graph_id, name)
);

CREATE TABLE IF NOT EXISTS distance_runs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    series_id  INTEGER REFERENCES state_series(id) ON DELETE CASCADE,
    measure    TEXT NOT NULL,
    t_from     INTEGER NOT NULL,
    t_to       INTEGER NOT NULL,
    value      REAL NOT NULL,
    elapsed_s  REAL,
    created_at TEXT NOT NULL DEFAULT (datetime('now'))
);

CREATE TABLE IF NOT EXISTS experiment_results (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment TEXT NOT NULL,
    metric     TEXT NOT NULL,
    params     TEXT NOT NULL DEFAULT '{}',
    value      REAL NOT NULL,
    created_at TEXT NOT NULL DEFAULT (datetime('now'))
);

CREATE INDEX IF NOT EXISTS idx_distance_runs_series
    ON distance_runs (series_id, measure);
CREATE INDEX IF NOT EXISTS idx_experiment_results_exp
    ON experiment_results (experiment, metric);
"""

#: version -> SQL applied when upgrading *to* that version. Scripts must be
#: idempotent (IF NOT EXISTS) — new databases run them all after the base
#: DDL, existing ones only the versions above their stored schema_version.
MIGRATIONS: dict[int, str] = {
    2: """
CREATE TABLE IF NOT EXISTS corpora (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    graph_id    INTEGER NOT NULL REFERENCES graphs(id) ON DELETE CASCADE,
    name        TEXT NOT NULL,
    n_states    INTEGER NOT NULL,
    blob        BLOB NOT NULL,
    created_at  TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (graph_id, name)
);

CREATE INDEX IF NOT EXISTS idx_corpora_graph ON corpora (graph_id, name);
""",
    3: """
CREATE TABLE IF NOT EXISTS transition_cache (
    graph_id    INTEGER NOT NULL REFERENCES graphs(id) ON DELETE CASCADE,
    key_a       BLOB NOT NULL,
    key_b       BLOB NOT NULL,
    value       REAL NOT NULL,
    updated_at  TEXT NOT NULL DEFAULT (datetime('now')),
    PRIMARY KEY (graph_id, key_a, key_b)
) WITHOUT ROWID;
""",
    4: """
DELETE FROM transition_cache;
""",
}
