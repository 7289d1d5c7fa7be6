(* Generator state lives in unboxed [Bytes] words read and written with
   the native-endian 64-bit primitives: a [mutable int64] record field
   boxes a fresh value on every write, so a generator step would
   allocate. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

module SplitMix64 = struct
  type t = Bytes.t

  let create seed =
    let t = Bytes.create 8 in
    set64 t 0 seed;
    t

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix x =
    let open Int64 in
    let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
    let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
    logxor x (shift_right_logical x 31)

  let next t =
    let s = Int64.add (get64 t 0) golden_gamma in
    set64 t 0 s;
    mix s
end

module Xoshiro256 = struct
  (* s0..s3 at byte offsets 0, 8, 16, 24. *)
  type t = Bytes.t

  let of_words s0 s1 s2 s3 =
    let t = Bytes.create 32 in
    set64 t 0 s0;
    set64 t 8 s1;
    set64 t 16 s2;
    set64 t 24 s3;
    t

  let create seed =
    let sm = SplitMix64.create seed in
    let s0 = SplitMix64.next sm in
    let s1 = SplitMix64.next sm in
    let s2 = SplitMix64.next sm in
    let s3 = SplitMix64.next sm in
    (* The all-zero state is the only invalid one; SplitMix64 outputs make it
       astronomically unlikely, but guard anyway. *)
    if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_words 1L 2L 3L 4L
    else of_words s0 s1 s2 s3

  let copy = Bytes.copy

  let[@inline always] rotl x k =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let[@inline always] next t =
    let open Int64 in
    let s0 = get64 t 0 and s1 = get64 t 8 in
    let s2 = logxor (get64 t 16) s0 and s3 = logxor (get64 t 24) s1 in
    let result = mul (rotl (mul s1 5L) 7) 9L in
    set64 t 0 (logxor s0 s3);
    set64 t 8 (logxor s1 s2);
    set64 t 16 (logxor s2 (shift_left s1 17));
    set64 t 24 (rotl s3 45);
    result

  let jump_table =
    [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

  let jump t =
    let acc = Bytes.make 32 '\000' in
    Array.iter
      (fun jump ->
        for b = 0 to 63 do
          if Int64.logand jump (Int64.shift_left 1L b) <> 0L then
            for w = 0 to 3 do
              set64 acc (8 * w) (Int64.logxor (get64 acc (8 * w)) (get64 t (8 * w)))
            done;
          ignore (next t)
        done)
      jump_table;
    Bytes.blit acc 0 t 0 32
end

type t = Xoshiro256.t

let create ?(seed = 0x5EED) () = Xoshiro256.create (Int64.of_int seed)
let copy = Xoshiro256.copy

let split t =
  let u = Xoshiro256.copy t in
  Xoshiro256.jump u;
  u

(* A distinct gamma (odd, high-entropy) keeps the substream index walk
   independent of SplitMix64's own counter walk. *)
let substream_gamma = 0xD1B54A32D192ED03L

let substream ~master i =
  if i < 0 then invalid_arg "Prng.substream: negative index";
  let seed64 =
    SplitMix64.mix
      (Int64.add (Int64.of_int master)
         (Int64.mul substream_gamma (Int64.of_int (i + 1))))
  in
  Xoshiro256.create seed64

let bits64 = Xoshiro256.next

(* 2^-53 *)
let ulp53 = 1.110223024625156540e-16

let float t =
  let bits = Int64.shift_right_logical (Xoshiro256.next t) 11 in
  Int64.to_float bits *. ulp53

let rec float_open t =
  let x = float t in
  if x > 0. then x else float_open t

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec go () =
    let bits = Int64.shift_right_logical (Xoshiro256.next t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub bits v > Int64.sub (Int64.sub Int64.max_int n64) 1L then go ()
    else Int64.to_int v
  in
  go ()

let bool t = Int64.logand (Xoshiro256.next t) 1L = 1L
let exponential t lambda = -.log (float_open t) /. lambda

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
