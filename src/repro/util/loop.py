"""An asyncio event loop on a thread of its own, for synchronous callers:
the handles of the cluster coordinator and of the gateway each run one."""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Callable, Optional

__all__ = ["LoopThread"]


class LoopThread:
    """One event loop on one daemon thread named ``name``; ``loop`` is
    None unless it is running."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start the thread; returns once it is up."""
        if self.loop is not None:
            raise RuntimeError(f"{self.name} already started")
        loop = self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            started.set()
            loop.run_forever()
            # Drain cancelled tasks so the loop closes without warnings.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.close()

        self._thread = threading.Thread(target=_run, name=self.name, daemon=True)
        self._thread.start()
        started.wait()

    def submit(self, coro) -> concurrent.futures.Future:
        """Run ``coro`` on the loop; its result is the future's."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro, timeout: Optional[float]) -> Any:
        """Run ``coro`` on the loop and wait up to ``timeout`` for it."""
        return self.submit(coro).result(timeout)

    def call(self, fn: Callable, *args: Any, timeout: Optional[float] = 10.0) -> Any:
        """``fn(*args)``, called on the loop thread; waits for its result."""

        async def on_loop() -> Any:
            return fn(*args)

        return self.run(on_loop(), timeout)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the loop, cancel what is pending and join the thread."""
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=timeout)
        self.loop = None
        self._thread = None
