module R = Runtime_events

type counts = { minor : int; forced_make_vect : int; lost : int }

let cursor =
  lazy
    (R.start ();
     R.create_cursor None)

let count f =
  let cursor = Lazy.force cursor in
  let minor = Hashtbl.create 4 and forced = ref 0 and lost = ref 0 in
  let callbacks =
    R.Callbacks.create
      ~runtime_begin:(fun dom _ phase ->
        match phase with
        | R.EV_MINOR ->
            Hashtbl.replace minor dom (1 + Option.value ~default:0 (Hashtbl.find_opt minor dom))
        | _ -> ())
      ~runtime_counter:(fun _ _ counter v ->
        match counter with R.EV_C_FORCE_MINOR_MAKE_VECT -> forced := !forced + v | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  (* Skip what the ring holds from before the call. *)
  ignore (R.read_poll cursor (R.Callbacks.create ()) None);
  let r = f () in
  ignore (R.read_poll cursor callbacks None);
  (r, { minor = Hashtbl.fold (fun _ n m -> max n m) minor 0; forced_make_vect = !forced; lost = !lost })
