module Interval = Tpdb_interval.Interval

let sanitize_enabled =
  lazy
    (match Sys.getenv_opt "TPDB_SANITIZE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

module Source = struct
  (* Endpoints unboxed into int arrays, payloads in a parallel array:
     the flat layout every sweep below iterates by index. *)
  type 'a t = {
    ts : int array;
    te : int array;
    payload : 'a array;
    len : int;
  }

  let check_sorted ts len =
    for i = 1 to len - 1 do
      if ts.(i - 1) > ts.(i) then
        invalid_arg
          (Printf.sprintf
             "Sweep.Source: input not sorted by start (ts %d after %d)"
             ts.(i) ts.(i - 1))
    done

  let of_arrays ~ts ~te ~payload ~len =
    if
      len < 0
      || len > Array.length ts
      || len > Array.length te
      || len > Array.length payload
    then invalid_arg "Sweep.Source.of_arrays: inconsistent lengths";
    if Lazy.force sanitize_enabled then check_sorted ts len;
    { ts; te; payload; len }

  let of_list items =
    let n = List.length items in
    if n = 0 then
      { ts = [||]; te = [||]; payload = [||]; len = 0 }
    else begin
      let ts = Array.make n 0 and te = Array.make n 0 in
      let payload = Flat.Vec.create () in
      List.iteri
        (fun i (iv, x) ->
          ts.(i) <- Interval.ts iv;
          te.(i) <- Interval.te iv;
          Flat.Vec.push payload x)
        items;
      let payload = Flat.Vec.contents payload in
      check_sorted ts n;
      { ts; te; payload; len = n }
    end

  let length t = t.len
end

let constant_segments (src : 'a Source.t) =
  let n = src.Source.len in
  if n = 0 then []
  else begin
    let ts = src.Source.ts and te = src.Source.te in
    let heap = Heap.create ~cmp:Int.compare () in
    (* reverse arrival order of (ending point, payload index) *)
    let active = ref [] in
    let segments = ref [] in
    let i = ref 0 in
    let pos = ref 0 in
    let admit t =
      while !i < n && ts.(!i) = t do
        active := (te.(!i), !i) :: !active;
        Heap.push heap te.(!i);
        incr i
      done
    in
    let retire t =
      active := List.filter (fun (e, _) -> e > t) !active;
      let rec pops () =
        match Heap.peek heap with
        | Some e when e <= t ->
            ignore (Heap.pop heap);
            pops ()
        | Some _ | None -> ()
      in
      pops ()
    in
    let min_end () =
      match Heap.peek heap with Some e -> e | None -> max_int
    in
    while !i < n || !active <> [] do
      if !active = [] then begin
        let t = ts.(!i) in
        pos := t;
        admit t
      end
      else begin
        let next_start = if !i < n then ts.(!i) else max_int in
        let t = min (min_end ()) next_start in
        if t > !pos then begin
          Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Sweep_segments;
          segments :=
            ( Interval.make !pos t,
              List.rev_map (fun (_, j) -> src.Source.payload.(j)) !active )
            :: !segments
        end;
        retire t;
        admit t;
        pos := t
      end
    done;
    List.rev !segments
  end
