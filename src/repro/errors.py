"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class. The hierarchy mirrors the paper's
failure taxonomy: retryable errors (transient hardware/network issues that
the Cubrick proxy retries in a different region) versus non-retryable
errors (logical conditions such as shard collisions, which Shard Manager
must resolve by picking a different placement rather than retrying).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven into an invalid state."""


class ClusterError(ReproError):
    """Base class for cluster-substrate errors."""


class HostNotFoundError(ClusterError):
    """A host id does not exist in the cluster topology."""


class HostUnavailableError(ClusterError):
    """The target host is failed, drained, or decommissioned."""


class CapacityExceededError(ClusterError):
    """A placement would exceed the host's reported capacity."""


class ShardManagerError(ReproError):
    """Base class for Shard Manager errors."""


class RetryableShardError(ShardManagerError):
    """A transient error; the caller (SM server or proxy) may retry."""


class NonRetryableShardError(ShardManagerError):
    """The application server cannot take this shard on this host.

    Raised by Cubrick's ``addShard`` implementation when the migration
    would create a shard collision (two shards holding partitions of the
    same table on one host). Shard Manager reacts by trying a different
    target server instead of retrying the same one (paper §IV-A).
    """


class ShardNotFoundError(ShardManagerError):
    """The shard id is not registered with the Shard Manager."""


class ShardAlreadyAssignedError(ShardManagerError):
    """An addShard call targeted a host that already owns the shard."""


class MigrationError(ShardManagerError):
    """A shard migration workflow could not be completed."""


class ServiceDiscoveryError(ReproError):
    """Base class for SMC (service discovery) errors."""


class ShardMappingUnknownError(ServiceDiscoveryError):
    """No host mapping is known (yet) for the requested shard."""


class CubrickError(ReproError):
    """Base class for Cubrick DBMS errors."""


class TableNotFoundError(CubrickError):
    """The referenced table does not exist in the catalog."""


class TableAlreadyExistsError(CubrickError):
    """A CREATE TABLE collided with an existing table name."""


class PartitionNotFoundError(CubrickError):
    """The referenced table partition is not present on this node."""


class InvalidTableNameError(CubrickError):
    """Table names may not contain the reserved ``#`` separator."""


class SchemaError(CubrickError):
    """A record or query does not match the table schema."""


class QueryError(CubrickError):
    """A query is malformed or references unknown columns."""


class SqlError(QueryError):
    """A SQL statement failed to lex, parse or plan.

    Carries the character ``position`` of the offending token and (when
    known) the ``statement`` text, so frontends can render a caret
    pointing at the error. Subclasses :class:`QueryError` so existing
    handlers of malformed programmatic queries keep working.
    """

    def __init__(self, message: str, *, statement: str | None = None,
                 position: int | None = None):
        super().__init__(message)
        self.message = message
        self.statement = statement
        self.position = position

    def context(self) -> str:
        """The statement with a caret under the offending position."""
        if self.statement is None or self.position is None:
            return self.message
        caret = " " * self.position + "^"
        return f"{self.message}\n  {self.statement}\n  {caret}"

    def __str__(self) -> str:
        if self.position is None:
            return self.message
        return f"{self.message} (at position {self.position})"


class UnknownTableSqlError(SqlError, TableNotFoundError):
    """A SQL statement names a table the catalog does not have.

    Both a positioned :class:`SqlError` and a :class:`TableNotFoundError`,
    so the serving tier keeps reporting it as ``table_not_found``.
    """


class QueryFailedError(CubrickError):
    """Query execution failed at runtime (e.g. a participating host died).

    Instances carry the region and host that failed so the Cubrick proxy
    can blacklist and retry in a different region (paper §IV-D).
    """

    def __init__(self, message: str, *, region: str | None = None,
                 host: str | None = None, retryable: bool = True):
        super().__init__(message)
        self.region = region
        self.host = host
        self.retryable = retryable


class AdmissionControlError(CubrickError):
    """The proxy rejected the query before execution (overload/blacklist)."""


class RegionUnavailableError(CubrickError):
    """No region can currently serve the query's tables."""


class ConsensusError(ReproError):
    """Base class for replicated metadata-log failures."""


class QuorumUnavailableError(ConsensusError):
    """A quorum read/write could not reach a majority of replicas."""
