"""Exception hierarchy for the simulator.

Two broad families exist and they are deliberately distinct:

* ``SimulatorError`` subclasses are *API errors*: a caller asked for
  something the model forbids (widening a capability, double-mapping a
  page, waiting with no children).  These are raised eagerly and carry
  no hardware meaning.
* Faults (see :mod:`sasfork.address_space`) model *hardware traps* hit
  while dereferencing memory.  They are wrapped in ``FaultError`` which
  lives next to the ``Fault`` value type to avoid an import cycle.

A call that names a pid never created raises ``UnknownPid``.  A call that
acts for a process, ``fork``, ``exit``, every syscall through the gateway
and the privileged operation, raises ``ProcessNotRunning`` for a pid that
does not run, a zombie or a reaped one, before it changes anything; reap
raises it for a pid that still runs or was already reaped, and says
which.  A syscall whose argument is missing, or one that the syscall
cannot convert to the type it needs, raises ``SyscallError("EINVAL")``
before the handler changes anything.
"""


class SimulatorError(Exception):
    """Base class for every error raised by the simulator."""


class CapabilityError(SimulatorError):
    """Illegal operation on a capability value."""


class BoundsWiden(CapabilityError):
    """A derivation tried to grow bounds or gain permissions."""


class SealedMutation(CapabilityError):
    """A sealed capability was asked to change or re-seal."""


class InvalidInvoke(CapabilityError):
    """The invoked capability is not the registered sealed entry for the
    named syscall."""


class OutOfFrame(SimulatorError):
    """A frame access fell outside the page."""


class AddressSpaceExhausted(SimulatorError):
    """The virtual-space cap was reached while reserving a region."""


class DoubleMap(SimulatorError):
    """A page table entry already exists at this address."""


class UnmappedPage(SimulatorError):
    """No page table entry exists at this address."""


class UnresolvableFault(SimulatorError):
    """resolve_fault was handed a fault it cannot legally resolve."""


class ProcessNotRunning(SimulatorError):
    """The pid is not in the state the operation needs: running, for a
    syscall, the privileged operation, fork or exit; a zombie, for reap."""


class NoChildren(SimulatorError):
    """wait() was called by a process with no children."""


class BadFd(SimulatorError):
    """Unknown file descriptor number."""


class UnknownPid(SimulatorError):
    """No process with this PID exists."""


class MismatchedScripts(SimulatorError):
    """compare() was given reports whose traces do not match."""


class SimInternalError(SimulatorError):
    """An internal invariant broke (e.g. a second fault after resolution)."""


class SyscallError(SimulatorError):
    """POSIX-style syscall failure, carrying an errno-like code."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


class ParseError(SimulatorError):
    """Workload script syntax or semantic error with a location."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
