"""Unit tests for the Eraser-style lockset race detector."""

import threading

import pytest

from repro.lint.baseline import Baseline, Suppression
from repro.lint.locks import (
    RaceDetector,
    access,
    active_detector,
    make_lock,
    shared,
)


def _on_thread(fn):
    """Run ``fn`` to completion on a separate thread."""
    t = threading.Thread(target=fn)
    t.start()
    t.join()


class Box:
    """A bare owner object for annotated accesses."""

    def __init__(self):
        self.field = 0


def test_tracked_lock_context_manager_and_state():
    lock = make_lock("demo")
    assert not lock.locked()
    with lock:
        assert lock.locked()
    assert not lock.locked()
    assert "demo" in repr(lock)


def test_held_set_maintained_without_detector(no_ambient_detector):
    # the per-thread lockset updates even with no detector installed,
    # so a detector installed mid-run sees true lock state
    from repro.lint.locks import _held_set
    lock = make_lock("early")
    lock.acquire()
    assert lock in _held_set()
    lock.release()
    assert lock not in _held_set()


def test_access_without_detector_is_noop(no_ambient_detector):
    assert active_detector() is None
    access(object(), "anything")  # must not raise, must not record


def test_detecting_scopes_installation(no_ambient_detector):
    detector = RaceDetector()
    with detector.detecting() as active:
        assert active is detector
        assert active_detector() is detector
    assert active_detector() is None


def test_second_install_rejected(fresh_detector):
    with pytest.raises(RuntimeError):
        RaceDetector().install()


def test_single_thread_never_reports(fresh_detector):
    box = Box()
    for _ in range(5):
        access(box, "field")
    assert fresh_detector.findings() == []


def test_unlocked_two_thread_write_is_reported(fresh_detector):
    box = Box()
    access(box, "field")
    _on_thread(lambda: access(box, "field"))
    findings = fresh_detector.findings()
    assert [f.ident for f in findings] == ["race:Box.field"]
    assert "no lock consistently protects" in findings[0].message


def test_report_carries_both_conflicting_accesses(fresh_detector):
    box = Box()
    access(box, "field")
    _on_thread(lambda: access(box, "field"))
    (candidate,) = fresh_detector.candidates
    assert candidate.previous is not None
    assert candidate.current.thread != candidate.previous.thread
    finding = candidate.finding()
    assert "conflicting access" in finding.detail
    assert "earlier access" in finding.detail


def test_consistent_locking_never_reports(fresh_detector):
    box = Box()
    lock = make_lock("box")

    def bump():
        with lock:
            access(box, "field")

    bump()
    _on_thread(bump)
    bump()
    assert fresh_detector.findings() == []


def test_read_only_sharing_never_reports(fresh_detector):
    box = Box()
    access(box, "field", write=False)
    _on_thread(lambda: access(box, "field", write=False))
    assert fresh_detector.findings() == []


def test_write_after_read_only_sharing_reports(fresh_detector):
    box = Box()
    access(box, "field", write=False)
    _on_thread(lambda: access(box, "field", write=False))
    _on_thread(lambda: access(box, "field"))
    assert [f.ident for f in fresh_detector.findings()] == ["race:Box.field"]


def test_inconsistent_locks_report(fresh_detector):
    # two locks, neither held at every access: the intersection empties
    box = Box()
    lock_a, lock_b = make_lock("a"), make_lock("b")

    def with_a():
        with lock_a:
            access(box, "field")

    def with_b():
        with lock_b:
            access(box, "field")

    with_a()             # exclusive
    _on_thread(with_b)   # lockset initialised to {b}
    with_a()             # {b} & {a} == {} -> report
    assert [f.ident for f in fresh_detector.findings()] == ["race:Box.field"]


def test_reported_once_per_field(fresh_detector):
    box = Box()
    access(box, "field")
    _on_thread(lambda: access(box, "field"))
    _on_thread(lambda: access(box, "field"))
    access(box, "field")
    assert len(fresh_detector.findings()) == 1


def test_shared_registration_labels_fields(fresh_detector):
    box = Box()
    shared(box, "field", label="MyBox")
    access(box, "field")
    _on_thread(lambda: access(box, "field"))
    assert [f.ident for f in fresh_detector.findings()] == ["race:MyBox.field"]
    assert "MyBox.field" in fresh_detector.tracked_fields()


def test_findings_respect_baseline(fresh_detector):
    box = Box()
    access(box, "field")
    _on_thread(lambda: access(box, "field"))
    baseline = Baseline([Suppression("race:Box.*", "sanctioned snapshot")])
    assert fresh_detector.findings(baseline=baseline) == []
    assert len(fresh_detector.findings()) == 1


def test_distinct_owners_do_not_alias(fresh_detector):
    # per-(owner, field) state: a race on one instance does not taint
    # another instance of the same class
    racy, clean = Box(), Box()
    lock = make_lock("clean")
    access(racy, "field")
    _on_thread(lambda: access(racy, "field"))

    def locked():
        with lock:
            access(clean, "field")

    locked()
    _on_thread(locked)
    assert len(fresh_detector.findings()) == 1


def test_collected_owner_ids_do_not_alias(fresh_detector):
    # Short-lived owners, each consistently locked by its own lock.
    # CPython hands a freed object's address to the next one of its
    # size, so without the detector holding its owners a new Box would
    # inherit the previous Box's lockset and report a race.
    def round_trip(i):
        box = Box()
        lock = make_lock(f"box-{i}")

        def locked():
            with lock:
                access(box, "field")

        locked()
        _on_thread(locked)

    for i in range(20):
        round_trip(i)
    assert fresh_detector.findings() == []
