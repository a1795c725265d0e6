type t = {
  name : string;
  sets : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  assoc : int;
  block_bits : int;
  tags : int array; (* sets * assoc; -1 = invalid *)
  ages : int array; (* LRU timestamps *)
  pending : bool array; (* per slot: prefetched, not yet demand-touched *)
  mutable clock : int;
}

type probe = Miss | Hit | Hit_pending

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create (l : Params.level) =
  assert (l.block > 0 && l.block land (l.block - 1) = 0);
  let sets = max 1 (l.capacity / (l.block * l.assoc)) in
  {
    name = l.name;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc = l.assoc;
    block_bits = log2 l.block;
    tags = Array.make (sets * l.assoc) (-1);
    ages = Array.make (sets * l.assoc) 0;
    pending = Array.make (sets * l.assoc) false;
    clock = 0;
  }

let block_bits t = t.block_bits
let name t = t.name

(* Every probe computes the set index; a power-of-two set count (the common
   case) turns the division into a mask.  All slot indices derived from it
   are in bounds by construction, so the loops below use unsafe accesses. *)
let set_base t line =
  (if t.set_mask >= 0 then line land t.set_mask else line mod t.sets) * t.assoc

let find t line =
  let base = set_base t line in
  let limit = base + t.assoc in
  let i = ref base in
  while !i < limit && Array.unsafe_get t.tags !i <> line do incr i done;
  if !i < limit then !i else -1

let touch_slot t slot =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.ages slot t.clock

(* Single-pass probe: walks the set once, looking for [line] while tracking
   the LRU victim a miss will fill.  Returns the hit slot, or [lnot v]
   (negative) with [v] the victim slot.  Victim rules: the base slot is the
   initial best by age only, the first invalid slot at index > base wins
   outright, and ages past that invalid slot are never compared.  (An
   invalid slot has age 0 and so also wins the age comparison — the subtle
   case is an invalid base, which must still lose to a later invalid
   slot.) *)
let locate t line =
  let base = set_base t line in
  if Array.unsafe_get t.tags base = line then base
  else begin
    let limit = base + t.assoc in
    let hit = ref (-1) in
    let free = ref (-1) in
    let best = ref base in
    let best_age = ref (Array.unsafe_get t.ages base) in
    let i = ref (base + 1) in
    while !hit < 0 && !i < limit do
      let slot = !i in
      let tag = Array.unsafe_get t.tags slot in
      if tag = line then hit := slot
      else begin
        if !free < 0 then
          if tag = -1 then free := slot
          else begin
            let age = Array.unsafe_get t.ages slot in
            if age < !best_age then begin
              best := slot;
              best_age := age
            end
          end;
        incr i
      end
    done;
    if !hit >= 0 then !hit
    else lnot (if !free >= 0 then !free else !best)
  end

let access t line =
  let r = locate t line in
  if r >= 0 then begin
    touch_slot t r;
    true
  end
  else begin
    let v = lnot r in
    Array.unsafe_set t.tags v line;
    Array.unsafe_set t.pending v false;
    touch_slot t v;
    false
  end

let access_pending t line =
  let r = locate t line in
  if r >= 0 then begin
    touch_slot t r;
    if Array.unsafe_get t.pending r then begin
      Array.unsafe_set t.pending r false;
      Hit_pending
    end
    else Hit
  end
  else begin
    let v = lnot r in
    Array.unsafe_set t.tags v line;
    Array.unsafe_set t.pending v false;
    touch_slot t v;
    Miss
  end

let insert t line =
  let r = locate t line in
  if r >= 0 then touch_slot t r
  else begin
    let v = lnot r in
    Array.unsafe_set t.tags v line;
    Array.unsafe_set t.pending v false;
    touch_slot t v
  end

let insert_pending t line =
  let r = locate t line in
  if r >= 0 then touch_slot t r
  else begin
    let v = lnot r in
    Array.unsafe_set t.tags v line;
    Array.unsafe_set t.pending v true;
    touch_slot t v
  end

let mem t line = find t line >= 0

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ages 0 (Array.length t.ages) 0;
  Array.fill t.pending 0 (Array.length t.pending) false;
  t.clock <- 0
