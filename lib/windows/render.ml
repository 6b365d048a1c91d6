module Interval = Tpdb_interval.Interval
module Timeline = Tpdb_interval.Timeline
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Formula = Tpdb_lineage.Formula

(* Each time point maps to one column; spans wider than [max_width] are
   compressed by an integer factor. *)
type scale = { origin : int; per_char : int; columns : int }

let scale_of ~max_width span =
  let duration = Interval.duration span in
  let per_char = max 1 ((duration + max_width - 1) / max_width) in
  {
    origin = Interval.ts span;
    per_char;
    columns = (duration + per_char - 1) / per_char;
  }

let bar scale iv =
  let cell column =
    let cell_start = scale.origin + (column * scale.per_char) in
    let cell_iv = Interval.make cell_start (cell_start + scale.per_char) in
    if Interval.overlaps cell_iv iv then '#' else ' '
  in
  String.init scale.columns cell

let ruler scale =
  let mark column =
    let t = scale.origin + (column * scale.per_char) in
    Char.chr (Char.code '0' + abs (t mod 10))
  in
  String.init scale.columns mark

let label_width = 26

let row ~label ~annotation scale iv =
  let label =
    if String.length label > label_width then String.sub label 0 label_width
    else label ^ String.make (label_width - String.length label) ' '
  in
  Printf.sprintf "%s|%s| %s" label (bar scale iv) annotation

let header ~title scale =
  [
    title;
    Printf.sprintf "%s|%s|" (String.make label_width ' ') (ruler scale);
  ]

let relation ?(max_width = 60) r =
  match Relation.active_domain r with
  | None -> Relation.name r ^ ": (empty)\n"
  | Some span ->
      let scale = scale_of ~max_width span in
      let rows =
        List.map
          (fun tp ->
            row
              ~label:
                (Printf.sprintf "  %s %s"
                   (Formula.to_string_ascii (Tuple.lineage tp))
                   (Interval.to_string (Tuple.iv tp)))
              ~annotation:(Fact.to_string (Tuple.fact tp))
              scale (Tuple.iv tp))
          (Relation.sorted_by_fact_start r)
      in
      String.concat "\n"
        (header ~title:(Relation.name r) scale @ rows)
      ^ "\n"

let kind_letter = function
  | Window.Overlapping -> 'O'
  | Window.Unmatched -> 'U'
  | Window.Negating -> 'N'

let windows ?(max_width = 60) ~span ws =
  let scale = scale_of ~max_width span in
  let rows =
    List.map
      (fun w ->
        let ls =
          match Window.ls w with
          | Some l -> Formula.to_string_ascii l
          | None -> "-"
        in
        row
          ~label:
            (Printf.sprintf "  %c %s %s" (kind_letter (Window.kind w))
               (Interval.to_string (Window.iv w))
               (Formula.to_string_ascii (Window.lr w)))
          ~annotation:
            (Printf.sprintf "Fs=%s \xce\xbbs=%s"
               (match Window.fs w with
               | Some f -> "'" ^ Fact.to_string f ^ "'"
               | None -> "-")
               ls)
          scale (Window.iv w))
      ws
  in
  String.concat "\n" (header ~title:"windows" scale @ rows) ^ "\n"

let join_picture ?(max_width = 60) ~theta r s =
  let span =
    match
      Timeline.span
        (List.map Tuple.iv (Relation.tuples r)
        @ List.map Tuple.iv (Relation.tuples s))
    with
    | Some span -> span
    | None -> Interval.make 0 1
  in
  let pipeline = Array.to_list (Flat_join.windows ~stage:`Wuon ~theta r s) in
  String.concat "\n"
    [
      relation ~max_width r;
      relation ~max_width s;
      windows ~max_width ~span pipeline;
    ]
