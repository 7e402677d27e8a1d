(** Logical-line scanner for free-form Fortran.

    Splits raw source into logical lines: strips blank lines and plain
    comments, joins [&] continuations, and recognizes OpenMP sentinel
    comments ([!$OMP ...]), which survive as directive lines.  Line
    numbers refer to the first physical line of each logical line.

    The scan is one indexed pass: comments, sentinels, continuation
    marks and blanks are found by position in the source, and the only
    strings it allocates are the logical lines it returns. *)

type line = {
  lineno : int;
  text : string;
  is_directive : bool;  (** an [!$OMP] sentinel line *)
}

(* The characters [String.trim] drops. *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* [s.[lo..hi-1]] without leading and trailing blanks, as a range. *)
let rec trim_lo s lo hi = if lo < hi && is_space s.[lo] then trim_lo s (lo + 1) hi else lo
let rec trim_hi s lo hi = if hi > lo && is_space s.[hi - 1] then trim_hi s lo (hi - 1) else hi

(* Does [s.[lo..hi-1]] (already trimmed) open with [!$omp], in any case? *)
let is_omp_sentinel s lo hi =
  hi - lo >= 5
  && s.[lo] = '!'
  && s.[lo + 1] = '$'
  && Char.lowercase_ascii s.[lo + 2] = 'o'
  && Char.lowercase_ascii s.[lo + 3] = 'm'
  && Char.lowercase_ascii s.[lo + 4] = 'p'

(* End of the code part of [s.[lo..hi-1]]: the first ['!'] outside a
   string literal, or [hi]. *)
let comment_start s lo hi =
  let rec go i quote =
    if i >= hi then hi
    else
      let c = s.[i] in
      if quote <> ' ' then go (i + 1) (if c = quote then ' ' else quote)
      else if c = '\'' || c = '"' then go (i + 1) c
      else if c = '!' then i
      else go (i + 1) ' '
  in
  go lo ' '

(** Scan [source] into logical lines. *)
let scan source =
  let n = String.length source in
  let result = ref [] in
  (* the logical line being joined, [pbuf.[0..plen-1]]: each physical
     piece preceded by one blank *)
  let pbuf = ref (Bytes.create 128) in
  let plen = ref 0 in
  let pending_no = ref 0 in
  let pending_directive = ref false in
  let append lo len =
    if !plen + len + 1 > Bytes.length !pbuf then begin
      let b = Bytes.create (2 * (!plen + len + 1)) in
      Bytes.blit !pbuf 0 b 0 !plen;
      pbuf := b
    end;
    Bytes.set !pbuf !plen ' ';
    Bytes.blit_string source lo !pbuf (!plen + 1) len;
    plen := !plen + len + 1
  in
  (* A directive line is kept whole; a statement line splits on ';'
     outside string literals.  [p] is a read-only view of [pbuf] that
     does not outlive the flush. *)
  let flush () =
    let p = Bytes.unsafe_to_string !pbuf and len = !plen in
    let emit lo hi is_directive =
      let lo = trim_lo p lo hi in
      let hi = trim_hi p lo hi in
      if hi > lo then
        result := { lineno = !pending_no; text = String.sub p lo (hi - lo); is_directive } :: !result
    in
    if !pending_directive then emit 0 len true
    else begin
      let rec go i start quote =
        if i >= len then emit start len false
        else
          let c = p.[i] in
          if quote <> ' ' then go (i + 1) start (if c = quote then ' ' else quote)
          else if c = '\'' || c = '"' then go (i + 1) start c
          else if c = ';' then begin
            emit start i false;
            go (i + 1) (i + 1) ' '
          end
          else go (i + 1) start ' '
      in
      go 0 0 ' '
    end;
    plen := 0;
    pending_directive := false
  in
  (* one physical line, [source.[lo..hi-1]], numbered [lineno] *)
  let physical lineno lo hi =
    let tlo = trim_lo source lo hi in
    let thi = trim_hi source tlo hi in
    let directive = is_omp_sentinel source tlo thi in
    (* a directive keeps the clause text after the sentinel *)
    let blo, bhi = if directive then (tlo + 5, thi) else (lo, comment_start source lo hi) in
    let blo = trim_lo source blo bhi in
    let bhi = trim_hi source blo bhi in
    if bhi = blo then (if !plen = 0 then pending_directive := false)
    else begin
      let continuing = !plen > 0 in
      if not continuing then begin
        pending_no := lineno;
        pending_directive := directive
      end;
      (* a trailing '&' continues the line *)
      let continued = source.[bhi - 1] = '&' in
      let bhi = if continued then trim_hi source blo (bhi - 1) else bhi in
      (* a leading '&' on a continuation line is optional *)
      let blo =
        if continuing && bhi > blo && source.[blo] = '&' then trim_lo source (blo + 1) bhi
        else blo
      in
      append blo (bhi - blo);
      if not continued then flush ()
    end
  in
  let rec lines lineno lo =
    match String.index_from_opt source lo '\n' with
    | Some nl ->
      physical lineno lo nl;
      lines (lineno + 1) (nl + 1)
    | None -> physical lineno lo n
  in
  lines 1 0;
  if !plen > 0 then flush ();
  List.rev !result
