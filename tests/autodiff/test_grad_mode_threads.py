"""Grad mode is per thread: ``no_grad`` in one thread never reaches another.

Batched inference runs half its windows on a helper thread
(:func:`repro.utils.cpu.split_halves`), each half inside its own
``no_grad``; the two scopes open and close in whatever order the threads
reach them.
"""

from __future__ import annotations

import sys
import threading

from repro.autodiff.tensor import Tensor, grad_enabled, no_grad

TIMEOUT_S = 10.0


def _in_thread(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def test_interleaved_scopes_leave_every_thread_enabled():
    """A enters, B enters, A leaves, B leaves: with one process-wide flag,
    B restores the ``False`` it saved after A's entry."""
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with no_grad():
            a_in.set()
            assert b_in.wait(TIMEOUT_S)
            seen["a_inside"] = grad_enabled()
        seen["a_after"] = grad_enabled()
        a_out.set()

    def second():
        assert a_in.wait(TIMEOUT_S)
        with no_grad():
            b_in.set()
            assert a_out.wait(TIMEOUT_S)
            seen["b_inside"] = grad_enabled()
        seen["b_after"] = grad_enabled()

    threads = [_in_thread(first), _in_thread(second)]
    for thread in threads:
        thread.join(TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {
        "a_inside": False,
        "a_after": True,
        "b_inside": False,
        "b_after": True,
    }
    assert grad_enabled()
    x = Tensor([1.0], requires_grad=True)
    assert (x * 2).requires_grad


def test_a_new_thread_starts_enabled():
    seen = []
    with no_grad():
        thread = _in_thread(lambda: seen.append(grad_enabled()))
        thread.join(TIMEOUT_S)
        assert not grad_enabled()
    assert seen == [True]
    assert grad_enabled()


def test_no_grad_in_a_thread_leaves_the_caller_recording():
    inside, release = threading.Event(), threading.Event()

    def hold():
        with no_grad():
            inside.set()
            release.wait(TIMEOUT_S)

    thread = _in_thread(hold)
    try:
        assert inside.wait(TIMEOUT_S)
        assert grad_enabled()
        assert (Tensor([1.0], requires_grad=True) * 2).requires_grad
    finally:
        release.set()
        thread.join(TIMEOUT_S)


def test_many_threads_switching_often_each_see_their_own_mode():
    """More threads than CPUs, switching every microsecond: a shared flag
    would let one thread's scope show through in another's."""
    errors: list[str] = []

    def churn():
        for _ in range(300):
            if not grad_enabled():
                errors.append("off outside a scope")
            with no_grad():
                if grad_enabled():
                    errors.append("on inside a scope")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [_in_thread(churn) for _ in range(8)]
        for thread in threads:
            thread.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert grad_enabled()
