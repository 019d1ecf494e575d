(** The JSON subset every JSONL file of this repository uses: the
    [--metrics-out] lines of {!Export} and the DST repro files.

    Values are integers, strings, lists, objects and [null]; there are
    no floats or booleans.  {!to_string} writes one compact line (no
    whitespace), object fields in list order. *)

type t = Null | Int of int | String of string | List of t list | Obj of (string * t) list

val escape : string -> string
(** Escape a string for embedding in a JSON string literal: double
    quote and backslash are backslash-escaped, newline and tab become [\n] and [\t],
    other bytes below 0x20 become [\u00XX], and every other byte is
    copied unchanged. *)

val to_string : t -> string
(** Compact rendering, strings escaped with {!escape}. *)

val of_string : string -> (t, string) result
(** Parse one value; never raises.  Whitespace (space, tab, CR, LF)
    may surround any token.  [\uXXXX] escapes decode to UTF-8, and a
    surrogate pair combines into one supplementary code point.  Bytes
    after the value, lone surrogates, bad hex digits, floats,
    booleans and integers outside the native [int] range are
    errors. *)

val field : string -> t -> t option
(** [field k v] is the first value of field [k] when [v] is an
    object, [None] otherwise. *)
