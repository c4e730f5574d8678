(** The on-disk bug-finder trace: what [check --trace-out] writes and
    [fix --trace] reads, in either of two dialects.

    - {!Pmemcheck}, the native dialect: every event line ({!Trace.to_line}),
      then the site-statistics [STAT;] lines ({!Sitestats.to_lines}), then
      the [BUG;] report lines ({!Report.to_line}), each ending in a
      newline. Reading skips blank lines and sorts lines by prefix, so the
      three blocks may come in any order.
    - {!Pmtest}, PMTest's assertion-log style ({!Pmtest_format}) plus a
      final newline. It carries no site statistics: they read back empty,
      so repairs from it use the Full-AA oracle. *)

type dialect = Pmemcheck | Pmtest

type t = {
  events : Trace.event list;
  stats : Sitestats.t;
  bugs : Report.bug list;  (** raw reports, in detection order *)
}

val to_string : dialect -> t -> string

(** Raises {!Trace.Bad_trace} on a line the dialect cannot parse. *)
val of_string : dialect -> string -> t
