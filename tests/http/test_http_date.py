"""The ``Date`` header formatter (hypothesis).

:func:`repro.http.http_date` replaces ``email.utils.formatdate(ts,
usegmt=True)`` on the serve path so a server never imports
:mod:`email`; it must produce the same bytes for every timestamp a
``datetime`` can represent — leap days, year boundaries, negative
times and fractions that round up into the next second included.
"""

import calendar
from email.utils import formatdate

from hypothesis import example, given, settings, strategies as st

from repro.http import HttpResponse, http_date

#: 0001-01-01T00:00:00Z and 9999-12-31T23:59:58Z: the ``datetime`` range,
#: less one second so rounding up stays inside it
FIRST = -62135596800
LAST = 253402300798

#: (month, day) pairs at the edges of a day count: leap days (or the
#: 1 March they normalise to), month and year ends
EDGES = [(1, 1), (2, 28), (2, 29), (3, 1), (12, 31)]


def _boundary(year, month_day, offset):
    month, day = month_day
    return calendar.timegm((year, month, day, 0, 0, 0)) + offset


BOUNDARIES = st.builds(
    _boundary,
    st.integers(min_value=2, max_value=9998),
    st.sampled_from(EDGES),
    st.floats(min_value=-1.0, max_value=1.0))


@settings(max_examples=500)
@given(st.one_of(
    st.floats(min_value=FIRST, max_value=LAST),
    st.integers(min_value=FIRST, max_value=LAST).map(float),
    BOUNDARIES))
@example(0.0)
@example(-0.5)
@example(-1e-7)
@example(0.9999995)                     # rounds up into the next second
@example(951782399.9999996)             # 2000-02-28 -> leap day 2000-02-29
@example(951868799.0)                   # 2000-02-29 23:59:59 (leap day)
@example(946684799.9999999)             # 1999-12-31 -> 2000-01-01
@example(-2203891200.0)                 # 1900-03-01 (1900 is not leap)
@example(1709251199.5)                  # 2024-02-29 23:59:59.5
def test_http_date_matches_email_formatdate(timestamp):
    assert http_date(timestamp) == formatdate(timestamp, usegmt=True)


def test_http_date_is_imf_fixdate():
    assert http_date(784111777) == "Sun, 06 Nov 1994 08:49:37 GMT"


def test_encoded_response_carries_the_current_date(monkeypatch):
    monkeypatch.setattr("time.time", lambda: 784111777.25)
    wire = HttpResponse(body=b"x").encode()
    assert b"\r\nDate: Sun, 06 Nov 1994 08:49:37 GMT\r\n" in wire
