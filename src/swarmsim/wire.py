"""Wire message kinds and the codec both ends of a link agree on.

A message is a kind, a body and a (possibly empty) list of piggybacked
membership deltas, each a member's version entry `[node, incarnation,
status rank, last_update_time]` less its trailing defaults, so an Alive
record is `[node, incarnation]`, and `[node]` at incarnation 0 (see
`membership`). This is the one module that knows each kind's body layout:
in memory a body is a dict of named fields, and `encode` writes `[kind,
[values in BODY_FIELDS order], deltas]`, an absent field (or one set to
None) as null, with trailing nulls dropped; a field the kind lacks raises.
A CLAIM reads `["CLAIM",[7,2],[...]]`. `decode` rebuilds the dict of the
fields present. The bytes are compact `json.dumps` output with sorted keys,
so encoding is deterministic and a short digest of the bytes identifies a
message.

A `Message` is a value once sent: neither its sender nor any receiver writes
to it, its body or anything nested in them. The simulator encodes each sent
message once, for its byte count and digest, and hands the receiver the
sent object itself rather than decoding those bytes again. That is sound
because every body holds JSON-native values only (dicts with string keys,
lists, str, int, float, bool, None) and records, so the receiver sees what
`decode` would have produced; `decode` stays as the reference for that
equivalence.

Gossip is digest first (Scuttlebutt). A version map is a list of small
entries sorted by id, one per record, enough to tell which side's record
wins (`diff_versions`). HELLO carries the view's version map. A periodic
DIGEST carries no map, only one hash of each part's map (`view`,
`catalog`, `registry`): a peer whose hash of a part is the same needs
nothing, and a peer whose hash differs answers with a DIGEST that holds its
map of that part (the first level of Dynamo's Merkle exchange). A map is
answered, as a HELLO's is, by a HELLO-ACK or DELTA that carries only the
records the map lacks, under the map's key, and the ids whose record the
answering side lacks, under `want_<key>`; the wanted records follow in one
more DELTA. A `want_registry` list marks which ids the asker already holds
the static part of: those ids plainly, then the others as one trailing
list, so `[3,5,[7]]` is answered with the dynamic forms of 3 and 5 and the
full form of 7 (`registry`). A part with nothing in it is left out, and an
answer with no parts is not sent. Like records, each entry is a
`ListRecord` built once per record and shared by every map that holds it,
so maps of agents that agree compare equal entry by entry without a walk.
A member's entry and its record are one object, so the view's map and the
view's records are the same entries.

The view, the registry and the catalog are each a `VersionedMap`, which
owns the map, its hash and the diff; an owner adds only its merge rule,
the `newer` test it hands to `diff_records`. Map and hash are kept by
delta, not rebuilt: every write goes through `put` or `drop`, which keep
the version entries sorted by id with `bisect` and report the replaced and
the installed record to `changed(old, new)`. A read of the map is a copy of
that list, made once per change, and the hash, an AdHash sum of terms each
shared entry caches, moves by one subtraction and one addition. It is each
part's one hash: a DIGEST carries it and the convergence checks compare it
(`SwarmView.member_set_digest`, `Registry.content_hash`).

Every gossiped record has one compact positional wire form, a list that
begins with the record's version entry, so a map entry is a prefix of the
record it stands for:

- member: `[node, incarnation, status rank, last_update_time]`, the version
  entry itself, with a time of 0.0, then an Alive rank (0), then an
  incarnation of 0 left out where they end it, as `encode` drops trailing
  nulls. An Alive record is declared without a time, since its incarnation
  names it, so it travels as `[node, incarnation]`, and as `[node]` at
  incarnation 0: 3 bytes for `[5]`, where the full form `[5,0,0,0.0]` is
  11 (`membership`);
- registry entry: `[node, incarnation, status_version, stamped_time,
  cpu_perf_index, memory, link_bandwidth, drain_rate, utilization, battery,
  x, y, [typologies...]]`, or, to a peer that keeps the node's static part
  (hardware and typologies, which never change), the dynamic form
  `[node, incarnation, status_version, stamped_time, utilization, battery,
  x, y]` (`registry`);
- catalog record: `[id, [replicas...], owner, size]`, whose version entry
  is `[id]` alone, since a source's record is written once (`dataplane`);
- an OFFER's task, not gossiped but built once per task all the same:
  `[task_id, typology, work, memory_demand, deadline, origin_node,
  [[source, size]...]]` (`model`).

A record holds its numbers at their shortest (`shortest`): a float that
is a whole number under 1e16 in magnitude is held as its int, in
nested lists too, so a position travels as `70` rather than `70.0` and a
utilization of `0.0` as `0`. From 1e16 on a float keeps its exponent form
(`1e+17`), and `inf` stays a float. The record itself holds the int, not
only its text, so `decode` of a message gives what was sent, type for type;
the frozen object the record was built from keeps its floats, and every
`from_dict` reads a number with `float()` or `int()`. Floats in a body
outside a record (an OFFER's `submitted_at`) travel as they are.

Gossiped records are immutable and ride in many messages, so each is
wrapped once in the read-only `ListRecord`, whose compact JSON text
(`wire_json`) is fixed when it is built: every record is encoded anyway,
for the hash of a map that holds it or by a send. Mutating a record or a
`RecordList` raises, so the text can never go stale; values nested in a
record are shared as well and must not be mutated either. A record keeps
the frozen object it was built from, and a receiver that merges the record
installs that object (`adopt`), so records are shared across agents, not
only across the messages of one agent: a swarm that has converged holds one
copy of each record and encodes its JSON once.

`encode` splices those texts in where records occur in traffic: a body
field that is a `ListRecord` (an OFFER's task) is its text, and one that is
a `RecordList` (the records of a DELTA or HELLO-ACK, a version map in a
HELLO or a DIGEST), or the deltas, is its records' texts joined by commas.
An int (a PING's or ACK's `token`, a `task_id`, an `attempt`) is its
`repr` and a str is quoted by the C encoder's own string function, with no
trip through the C encoder. Every other value goes to the C encoder with
the same settings, which emits a record nested anywhere else as the list it
is, only without the kept text.

Each map's hash text is kept too: `VersionedMap.version_hash` formats the
hash sum once per change and keeps the text beside the kept map, for every
DIGEST, every reconcile and every convergence sample that reads it.
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import compress, count
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter, is_not, itemgetter

# Membership / discovery
HELLO = "HELLO"
HELLO_ACK = "HELLO-ACK"
PING = "PING"
ACK = "ACK"
LEAVE = "LEAVE"

# Anti-entropy of the view, the data catalog and the registry
DIGEST = "DIGEST"
DELTA = "DELTA"

# Scheduling / execution
OFFER = "OFFER"
ACCEPT = "ACCEPT"
REJECT = "REJECT"
CLAIM = "CLAIM"
CANCEL = "CANCEL"
NACK = "NACK"
DONE = "DONE"
FAILED = "FAILED"
QOS_WARN = "QOS-WARN"

# Each kind's body fields, in the order they travel. The anti-entropy parts
# go registry first, the one most often sent alone: trailing nulls are
# dropped, so a field that is often absent costs least last.
_PARTS = ("registry", "view", "catalog")
_TASK = ("task_id", "attempt")
BODY_FIELDS = {
    HELLO: ("view",),  # the view's version map
    HELLO_ACK: ("view", "want_view"),  # as DELTA, answering a HELLO's map
    PING: ("token",),
    ACK: ("token",),
    LEAVE: (),
    DIGEST: _PARTS,  # each part's map hash; or the maps whose hash differed
    # The records a map lacks and the ids wanted back; or wanted records.
    DELTA: tuple(f for part in _PARTS for f in (part, "want_" + part)),
    OFFER: ("task", "attempt", "submitted_at"),
    **dict.fromkeys((ACCEPT, REJECT, CLAIM, CANCEL, NACK, DONE, FAILED, QOS_WARN), _TASK),
}
ALL_KINDS = frozenset(BODY_FIELDS)
_FIELD_SETS = {kind: frozenset(fields) for kind, fields in BODY_FIELDS.items()}


def encode_fn(encoder: json.JSONEncoder):
    """`encoder.encode` without its per-call set-up: the C encoder it would
    build on each call, built once (without the circular-reference check,
    which only changes the error a cyclic value raises)."""
    if c_make_encoder is None:
        return encoder.encode
    encode = c_make_encoder(
        None, encoder.default, encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator,
        encoder.sort_keys, encoder.skipkeys, encoder.allow_nan,
    )
    return lambda value: "".join(encode(value, 0))


_encode_wire = encode_fn(json.JSONEncoder(sort_keys=True, separators=(",", ":")))


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is read-only")


class _ReadOnlyList(list):
    """A list whose mutators raise."""

    __slots__ = ()

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only


# Whole-number floats of smaller magnitude are held as ints. From 1e16 on,
# `repr` writes a float in exponent form, which for the round values a
# scenario sets (`1e+17`) is shorter than the int.
_INT_TEXT_BELOW = 1e16


def shortest(value):
    """`value` as a record holds it: a whole-number float under 1e16 in
    magnitude as its int (`70.0` as `70`, `-0.0` as `0`), inside nested
    lists too. Any other value is itself: a larger float keeps its exponent
    form, and `inf` and `nan` stay floats."""
    kind = type(value)
    if kind is float:
        if value.is_integer() and -_INT_TEXT_BELOW < value < _INT_TEXT_BELOW:
            return int(value)
    elif kind is list:
        return list(map(shortest, value))
    return value


class ListRecord(_ReadOnlyList):
    """A gossiped record's wire form, a list that begins with the record's
    version entry: read-only, its whole-number floats held as ints
    (`shortest`), its JSON encoded when it is built, built once per frozen
    record object (`source`) and shared by the version map (for a member)
    and every message that carries it."""

    __slots__ = ("wire_json", "_term", "source")

    def __init__(self, value, source=None):
        # A nested record is one already built, so its numbers are short.
        super().__init__(map(shortest, value))
        # `json.dumps(self, sort_keys=True, separators=(",", ":"))`
        self.wire_json = _encode_wire(self)
        self._term = None
        self.source = source

    def hash_term(self) -> int:
        """64 bits of blake2b of `wire_json`, cached: this entry's term in
        the hash of a version map that holds it (`VersionedMap`)."""
        term = self._term
        if term is None:
            digest = blake2b(self.wire_json.encode(), digest_size=8).digest()
            term = self._term = int.from_bytes(digest, "big")
        return term


class RecordList(_ReadOnlyList):
    """A read-only list of `ListRecord`s, e.g. the records of a DELTA or a
    member version map.

    Its JSON is its members' texts joined on each use; the joined text is
    not kept, since lists are rebuilt often and would hold it for the run.
    """

    __slots__ = ()


_wire_of = attrgetter("wire_json")  # a `ListRecord`'s text


def _records_json(records) -> str:
    """A `RecordList`'s wire JSON: its members' texts, joined."""
    return "[" + ",".join(map(_wire_of, records)) + "]"


# A value's wire JSON by its exact type: an int's `repr`, a str quoted as
# the C encoder quotes it, a record's text, a `RecordList` joined from its
# records' texts; any other type goes to the C encoder (`_value_json`).
_JSON_OF = {
    int: repr,
    str: encode_basestring_ascii,
    ListRecord: _wire_of,
    RecordList: _records_json,
}


def _value_json(value) -> str:
    """A value's wire JSON (`_JSON_OF`)."""
    return _JSON_OF.get(type(value), _encode_wire)(value)


_entry_id = itemgetter(0)  # a version entry's id


def diff_versions(mine: list, theirs: list, newer, live) -> tuple:
    """Reconcile two version maps: (ids to push, ids to want).

    A version map is a list of entries sorted by id, the id first in each
    entry. An id is pushed when our entry holds something the peer's lacks
    (`newer(ours, theirs)`, or the peer has none), and wanted in the other
    direction; an entry for which `live(entry)` is False is neither pushed
    nor wanted.

    An entry that is the peer's own (shared, as records are) is equal
    without comparing, so entries are tested by identity first, position
    by position, in C (`map(is_not, ...)`), before any is read: two maps
    whose entries all are shared are equal at once; maps of the same ids
    compare only the pairs at positions that differ; otherwise the shared
    runs at both ends are cut off and what is left is walked in id order,
    each step testing identity before it reads an id.
    """
    if mine == theirs:
        return [], []
    n, m = len(mine), len(theirs)
    if n == m:
        differ = compress(range(n), map(is_not, mine, theirs))
        pairs = [(mine[k], theirs[k]) for k in differ]
        if all([a[0] == b[0] for a, b in pairs]):
            push, want = [], []
            for a, b in pairs:
                if live(a) and newer(a, b):
                    push.append(a[0])
                if live(b) and newer(b, a):
                    want.append(b[0])
            return push, want
    # Cut the shared runs at the front and at the back.
    short = min(n, m)
    lo = next(compress(count(), map(is_not, mine, theirs)), short)
    hi = next(compress(count(), map(is_not, reversed(mine), reversed(theirs))), short)
    hi = min(hi, short - lo)
    # Walk the middles in id order while both have entries, an entry shared
    # by identity skipped before its id is read; then the rest of either.
    n, m = n - hi, m - hi
    push, want = [], []
    i = j = lo
    while i < n and j < m:
        a, b = mine[i], theirs[j]
        if a is b:
            i += 1
            j += 1
            continue
        key_a, key_b = a[0], b[0]
        if key_a < key_b:
            if live(a):
                push.append(key_a)
            i += 1
        elif key_b < key_a:
            if live(b):
                want.append(key_b)
            j += 1
        else:
            if live(a) and newer(a, b):
                push.append(key_a)
            if live(b) and newer(b, a):
                want.append(key_b)
            i += 1
            j += 1
    push += [a[0] for a in mine[i:n] if live(a)]
    want += [b[0] for b in theirs[j:m] if live(b)]
    return push, want


class VersionedMap:
    """Records by id, reconciled digest first: the base of the view, the
    registry and the catalog.

    `records` (id -> record, each with a `version_entry`, a `ListRecord`
    whose first element is the id) is written only through `put` and
    `drop`. Each keeps the version entries sorted by id, by `bisect`, and
    reports the record it replaced and the one it installed to
    `changed(old, new)`, which moves the hash, the sum mod 2^64 of the
    entries' `hash_term`s (AdHash; Bellare & Micciancio, EUROCRYPT 1997),
    and where an owner keeps its own derived state by delta. The version
    map is kept until the next change and shared with every message that
    carries it, so it is read-only.
    """

    def __init__(self):
        self.records: dict = {}
        self._entries: list = []  # every record's version entry, in id order
        self._map = None  # `version_map()`, until the next change
        self._hash = None  # `version_hash()`, until the next change
        self._sum = 0  # sum of the entries' `hash_term`s, mod 2^64

    def put(self, key, record) -> None:
        """Install `record` under `key`, in place of any record held."""
        old = self.records.get(key)
        self.records[key] = record
        entries = self._entries
        if old is None:
            insort(entries, record.version_entry, key=_entry_id)
        else:
            entries[bisect_left(entries, key, key=_entry_id)] = record.version_entry
        self.changed(old, record)

    def drop(self, key) -> bool:
        """Drop the record under `key`; True when one was held."""
        old = self.records.pop(key, None)
        if old is None:
            return False
        entries = self._entries
        del entries[bisect_left(entries, key, key=_entry_id)]
        self.changed(old, None)
        return True

    def changed(self, old, new) -> None:
        """Forget the kept map and hash text and move the hash sum by the
        delta: `put` replaced `old` (None when it added `new`), or `drop`
        dropped it (`new` is None)."""
        self._map = self._hash = None
        total = self._sum
        if old is not None:
            total -= old.version_entry.hash_term()
        if new is not None:
            total += new.version_entry.hash_term()
        self._sum = total % 2**64

    def version_map(self) -> RecordList:
        """Every record's `version_entry` in id order, as HELLO (the view's)
        and a DIGEST that answers a differing hash carry it: a copy of the
        kept entries, since a sent map must not change under its message."""
        kept = self._map
        if kept is None:
            kept = self._map = RecordList(self._entries)
        return kept

    def version_hash(self) -> str:
        """The map's hash, as a periodic DIGEST carries it and the
        convergence checks compare it: the AdHash sum in 16 hex characters,
        formatted once per change."""
        text = self._hash
        if text is None:
            text = self._hash = format(self._sum, "016x")
        return text

    def diff_records(self, remote: list, newer, live=lambda entry: True) -> tuple:
        """(our records a peer's version map lacks, ids whose record there
        holds something ours lacks): `diff_versions` of our map against
        `remote`, the pushed ids looked up. One id can be in both."""
        push, want = diff_versions(self.version_map(), remote, newer, live)
        return [self.records[i] for i in push], want

    def wire_forms(self, records: list, remote: list) -> RecordList:
        """`records`, pushed to a peer whose version map is `remote`, as
        they travel: each record's wire form (`to_dict`)."""
        return RecordList(r.to_dict() for r in records)

    def mark_wanted(self, want: list) -> list:
        """`want`, ids whose record we lack, as the `want_<part>` list that
        asks for them: the ids themselves."""
        return want

    def answer_wanted(self, want: list) -> list:
        """The wire forms of the records a `want_<part>` list
        (`mark_wanted`) asks for that we hold."""
        records = self.records
        return [records[i].to_dict() for i in want if i in records]


def adopt(record, from_dict):
    """The frozen object a gossiped record stands for: the one its
    `ListRecord` was built from, shared, else `from_dict(record)` (a plain
    list, as `decode` returns, or a record built without one)."""
    source = record.source if type(record) is ListRecord else None
    return from_dict(record) if source is None else source


@dataclass(frozen=True)
class Message:
    """One message; a read-only value once built (see the module docstring)."""

    kind: str
    body: dict = field(default_factory=dict)
    deltas: list = field(default_factory=list)  # piggybacked membership deltas


def encode(msg: Message) -> bytes:
    """`[kind, [body fields in BODY_FIELDS order], deltas]`, compact: an
    absent field is null, and trailing nulls are dropped."""
    kind, body = msg.kind, msg.body
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown message kind: {kind}")
    allowed = _FIELD_SETS[kind]
    if not body.keys() <= allowed:
        raise ValueError(f"{kind} has no field {sorted(body.keys() - allowed)}")
    values = list(map(body.get, BODY_FIELDS[kind]))
    while values and values[-1] is None:
        values.pop()
    json_of = _JSON_OF.get
    fields = ",".join(
        ["null" if v is None else json_of(type(v), _encode_wire)(v) for v in values]
    )
    return ('["' + kind + '",[' + fields + "]," + _value_json(msg.deltas) + "]").encode()


def decode(data: bytes) -> Message:
    """The message `data` encodes. Not called on simulated delivery, which
    hands over the sent object; the reference that path is tested against."""
    kind, values, deltas = json.loads(data.decode())
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown message kind: {kind}")
    fields = BODY_FIELDS[kind]
    if len(values) > len(fields):
        raise ValueError(f"{kind} has {len(fields)} fields, not {len(values)}")
    body = {name: v for name, v in zip(fields, values) if v is not None}
    return Message(kind=kind, body=body, deltas=deltas)


def digest(data: bytes) -> str:
    """Short stable content digest for trace records."""
    return "%08x" % zlib.crc32(data)
