"""repro — data disguising: reversible, composable privacy transformations.

A from-scratch Python reproduction of *"Privacy Heroes Need Data
Disguises"* (Tsai, Schwarzkopf, Kohler — HotOS 2021): an embedded
relational storage engine, a disguise-specification language built on the
three fundamental operations (remove, modify, decorrelate), vaults that
store reveal functions across several deployment models, and a disguising
engine that applies, composes, and reverses disguises while preserving
referential integrity.

Quickstart::

    from repro import Database, Disguiser, parse_schema, Schema
    from repro import DisguiseSpec, TableDisguise, Remove, Decorrelate, FakeName

    db = Database(Schema(parse_schema(DDL)))
    engine = Disguiser(db)
    engine.register(my_spec)
    report = engine.apply(my_spec, uid=19)
    engine.reveal(report.disguise_id)
"""

from repro.core import (
    DecayPolicy,
    DecayStage,
    Disguiser,
    DisguisePlan,
    DisguiseReport,
    ExpirationPolicy,
    MigrationReport,
    PolicyScheduler,
    PrivacyAssertion,
    RevealReport,
    SimClock,
    UpdateGuard,
)
from repro.errors import (
    AssertionFailure,
    CryptoError,
    DisguiseError,
    ReproError,
    SpecError,
    StorageError,
    VaultError,
)
from repro.obs import (
    PlanReport,
    Registry,
    Span,
    TRACER,
    Tracer,
    disable_tracing,
    enable_tracing,
    render_spans,
    span,
    spans_to_jsonl,
    traced,
)
from repro.spec import (
    Decorrelate,
    Default,
    DisguiseSpec,
    FakeEmail,
    FakeName,
    Modify,
    RandomValue,
    Remove,
    Sequence,
    TableDisguise,
    find_interactions,
    named_modifier,
    redundant_decorrelations,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    validate_spec,
)
from repro.storage import (
    AddColumn,
    Column,
    ColumnType,
    Database,
    DropColumn,
    RenameColumn,
    RenameTable,
    SchemaChange,
    FKAction,
    ForeignKey,
    QueryStats,
    Schema,
    TableSchema,
    load_database,
    parse_create_table,
    parse_schema,
    parse_select,
    parse_where,
    save_database,
)
from repro.vault import (
    EncryptedVault,
    FileVault,
    MemoryVault,
    MultiTierVault,
    TableVault,
    VaultEntry,
    VaultStore,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # engine
    "Disguiser",
    "DisguiseReport",
    "RevealReport",
    "PrivacyAssertion",
    "SimClock",
    "PolicyScheduler",
    "ExpirationPolicy",
    "DecayPolicy",
    "DecayStage",
    "DisguisePlan",
    "UpdateGuard",
    "MigrationReport",
    "SchemaChange",
    "AddColumn",
    "DropColumn",
    "RenameColumn",
    "RenameTable",
    # specs
    "DisguiseSpec",
    "TableDisguise",
    "Remove",
    "Modify",
    "Decorrelate",
    "RandomValue",
    "Default",
    "Sequence",
    "FakeName",
    "FakeEmail",
    "named_modifier",
    "spec_from_dict",
    "spec_from_json",
    "spec_to_dict",
    "validate_spec",
    "find_interactions",
    "redundant_decorrelations",
    # storage
    "Database",
    "Schema",
    "TableSchema",
    "Column",
    "ForeignKey",
    "FKAction",
    "ColumnType",
    "QueryStats",
    "parse_where",
    "parse_create_table",
    "parse_schema",
    "parse_select",
    "save_database",
    "load_database",
    # observability
    "Registry",
    "PlanReport",
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "render_spans",
    "spans_to_jsonl",
    # vaults
    "VaultStore",
    "VaultEntry",
    "MemoryVault",
    "TableVault",
    "FileVault",
    "EncryptedVault",
    "MultiTierVault",
    # errors
    "ReproError",
    "StorageError",
    "SpecError",
    "DisguiseError",
    "AssertionFailure",
    "VaultError",
    "CryptoError",
]
