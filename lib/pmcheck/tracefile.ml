(* The on-disk bug-finder trace in its two dialects (see tracefile.mli). *)

type dialect = Pmemcheck | Pmtest

type t = {
  events : Trace.event list;
  stats : Sitestats.t;
  bugs : Report.bug list;
}

let to_string dialect t =
  match dialect with
  | Pmemcheck ->
      List.map Trace.to_line t.events
      @ Sitestats.to_lines t.stats
      @ List.map Report.to_line t.bugs
      |> List.map (fun l -> l ^ "\n")
      |> String.concat ""
  | Pmtest -> Pmtest_format.to_string ~events:t.events ~bugs:t.bugs ^ "\n"

let of_string dialect s =
  match dialect with
  | Pmemcheck ->
      let lines =
        String.split_on_char '\n' s
        |> List.filter (fun l -> String.trim l <> "")
      in
      let stats_lines, rest =
        List.partition (String.starts_with ~prefix:"STAT;") lines
      in
      let bug_lines, event_lines =
        List.partition (String.starts_with ~prefix:"BUG;") rest
      in
      (* events parse first, so a bad event line is the error reported
         even when a STAT or BUG line is bad too *)
      let events = List.map Trace.of_line event_lines in
      let stats = Sitestats.of_lines stats_lines in
      let bugs = List.map Report.of_line bug_lines in
      { events; stats; bugs }
  | Pmtest ->
      let events, bugs = Pmtest_format.of_string s in
      { events; stats = Sitestats.create (); bugs }
