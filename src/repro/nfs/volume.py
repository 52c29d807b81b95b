"""A shared NFS volume.

FfDL mounts one NFS volume per job, shared between the learner pods and the
helper pod: "the shared NFS volume enables the controller container ...
to monitor the execution and exit status of the learner processes ... by
reading their output and process exit statuses redirected to a file"
(Section 3.8).  The volume is a small in-memory filesystem; its contents
survive pod crashes (that is the point), but not volume deletion.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class NFSVolume:
    """A tiny shared filesystem: path -> string content, with append.

    ``subscribe`` registers a change callback (``unsubscribe`` drops
    it); this stands in for the helper controller's fast polling loop
    over status files without simulating every poll tick (the
    observable behaviour — the controller reacts to file changes within
    its poll interval — is preserved by the consumer adding its poll
    latency).
    """

    def __init__(self, name: str, capacity_bytes: float = 1e9):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._files: Dict[str, str] = {}
        self._subscribers: List[Callable[[str], None]] = []
        self.released = False

    def subscribe(self, callback: Callable[[str], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[str], None]) -> None:
        """Drop a callback ``subscribe`` registered (a dead helper's)."""
        self._subscribers.remove(callback)

    def _changed(self, path: str) -> None:
        for callback in list(self._subscribers):
            callback(path)

    def write(self, path: str, content: str) -> None:
        self._check_live()
        self._files[path] = content
        self._changed(path)

    def append(self, path: str, content: str) -> None:
        self._check_live()
        self._files[path] = self._files.get(path, "") + content
        self._changed(path)

    def read(self, path: str) -> Optional[str]:
        self._check_live()
        return self._files.get(path)

    def exists(self, path: str) -> bool:
        self._check_live()
        return path in self._files

    def listdir(self, prefix: str = "") -> List[str]:
        self._check_live()
        return sorted(p for p in self._files if p.startswith(prefix))

    def delete(self, path: str) -> bool:
        self._check_live()
        return self._files.pop(path, None) is not None

    def used_bytes(self) -> int:
        return sum(len(content) for content in self._files.values())

    def release(self) -> None:
        """Tear the volume down (Guardian garbage collection); the
        subscribers hear it as a change of the root path ``""``."""
        self.released = True
        self._files.clear()
        self._changed("")

    def _check_live(self) -> None:
        if self.released:
            raise RuntimeError(f"volume {self.name!r} has been released")
