"""Long-running serving daemon for experiment/replay/sweep jobs.

``repro serve`` starts :class:`ServeServer`, an asyncio daemon listening
on a local unix socket (or TCP), accepting jobs over a newline-delimited
JSON protocol and running them through the same executor + content-
addressed cache as the batch harness.  A daemon job is *deterministic
with respect to the in-process harness*: the streamed result dict equals
``run_result_to_dict`` of the same config run locally.

Submit from Python with :class:`ServeClient` / :class:`AsyncServeClient`
or from the shell with ``repro submit`` / ``repro jobs`` /
``repro cancel``.  See ``docs/DAEMON.md`` for the protocol and
lifecycle.
"""

from .client import AsyncServeClient, JobResult, ServeClient
from .jobs import Job, JobQueue, JobSpec
from .protocol import (
    PROTOCOL_VERSION,
    JobFailedError,
    JobNotFoundError,
    MalformedRequestError,
    QueueFullError,
    ServeError,
    ShuttingDownError,
)
from .scheduler import Scheduler
from .server import ServeServer, default_socket_path
from .state import ServerState
from .worker import job_track

__all__ = [
    "ServeServer",
    "ServeClient",
    "AsyncServeClient",
    "JobResult",
    "Scheduler",
    "ServerState",
    "Job",
    "JobQueue",
    "JobSpec",
    "ServeError",
    "MalformedRequestError",
    "QueueFullError",
    "JobNotFoundError",
    "ShuttingDownError",
    "JobFailedError",
    "PROTOCOL_VERSION",
    "default_socket_path",
    "job_track",
]
