type reason = Fuel | Deadline

exception Exhausted of reason

let deadline_poll_interval = 512

type t = {
  has_fuel : bool;
  mutable fuel : int;  (* remaining, meaningful when [has_fuel] *)
  deadline : float;  (* absolute; [infinity] = none *)
  mutable ticks : int;  (* spends until the next clock read *)
  mutable spent : reason option;  (* sticky exhaustion *)
}

let unlimited =
  { has_fuel = false; fuel = 0; deadline = infinity; ticks = 0; spent = None }

let create ?fuel ?deadline_at () =
  {
    has_fuel = fuel <> None;
    fuel = Option.value fuel ~default:0;
    deadline = Option.value deadline_at ~default:infinity;
    ticks = deadline_poll_interval;
    spent = None;
  }

let exhausted t = t.spent

let spend ?(cost = 1) t =
  (match t.spent with Some r -> raise (Exhausted r) | None -> ());
  if t.has_fuel then begin
    t.fuel <- t.fuel - cost;
    if t.fuel < 0 then begin
      t.spent <- Some Fuel;
      raise (Exhausted Fuel)
    end
  end;
  if t.deadline < infinity then begin
    t.ticks <- t.ticks - 1;
    if t.ticks <= 0 then begin
      t.ticks <- deadline_poll_interval;
      if Unix.gettimeofday () > t.deadline then begin
        t.spent <- Some Deadline;
        raise (Exhausted Deadline)
      end
    end
  end

let reason_to_string = function Fuel -> "fuel" | Deadline -> "deadline"
