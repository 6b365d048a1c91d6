type 'a t = { lock : Mutex.t; value : 'a Lazy.t }

let make f = { lock = Mutex.create (); value = Lazy.from_fun f }
let of_value v = { lock = Mutex.create (); value = Lazy.from_val v }
let force t = Mutex.protect t.lock (fun () -> Lazy.force t.value)
let is_computed t = Lazy.is_val t.value
